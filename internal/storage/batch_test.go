package storage

import (
	"fmt"
	"reflect"
	"testing"

	"hawq/internal/catalog"
	"hawq/internal/expr"
	"hawq/internal/hdfs"
	"hawq/internal/types"
)

// scanAllBatches collects every row a batch scan produces, cloning out
// of the arena.
func scanAllBatches(t *testing.T, fs *hdfs.FileSystem, spec catalog.StorageSpec, sf catalog.SegFile, proj []int) []types.Row {
	t.Helper()
	var out []types.Row
	err := ScanBatches(fs, spec, testSchema(), sf, proj, func(b *types.Batch) error {
		for i := 0; i < b.Len(); i++ {
			out = append(out, b.Row(i).Clone())
		}
		types.PutBatch(b)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestScanBatchesMatchesScan(t *testing.T) {
	rows := testRows(5000)
	for _, spec := range allSpecs {
		t.Run(spec.Orientation+"/"+spec.Codec, func(t *testing.T) {
			fs := testFS(t)
			sf := writeAll(t, fs, spec, rows)
			for _, proj := range [][]int{nil, {0}, {2, 0}} {
				want := scanAll(t, fs, spec, sf, proj)
				got := scanAllBatches(t, fs, spec, sf, proj)
				if len(got) != len(want) {
					t.Fatalf("proj %v: %d rows, want %d", proj, len(got), len(want))
				}
				for i := range want {
					if !reflect.DeepEqual(got[i], want[i]) {
						t.Fatalf("proj %v row %d: %v != %v", proj, i, got[i], want[i])
					}
				}
			}
		})
	}
}

func TestScanBatchesZeroColumnProjection(t *testing.T) {
	rows := testRows(500)
	for _, spec := range []catalog.StorageSpec{
		{Orientation: catalog.OrientRow, Codec: "quicklz"},
		{Orientation: catalog.OrientColumn, Codec: "quicklz"},
		{Orientation: catalog.OrientParquet, Codec: "quicklz"},
	} {
		fs := testFS(t)
		sf := writeAll(t, fs, spec, rows)
		n := 0
		err := ScanBatches(fs, spec, testSchema(), sf, []int{}, func(b *types.Batch) error {
			n += b.Len()
			types.PutBatch(b)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if n != len(rows) {
			t.Errorf("%s: count(*) batch scan = %d", spec.Orientation, n)
		}
	}
}

func TestScanBatchesEmptyFile(t *testing.T) {
	fs := testFS(t)
	for _, spec := range allSpecs {
		sf := catalog.SegFile{Path: "/data/none/0/1"}
		err := ScanBatches(fs, spec, testSchema(), sf, nil, func(b *types.Batch) error {
			t.Errorf("%s: batch from empty file", spec.Orientation)
			types.PutBatch(b)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// benchScanRows builds a written segment file for the scan benchmarks.
func benchScanSetup(b *testing.B, orientation string) (*hdfs.FileSystem, catalog.StorageSpec, catalog.SegFile, int) {
	b.Helper()
	rows := testRows(20000)
	spec := catalog.StorageSpec{Orientation: orientation, Codec: "quicklz"}
	fs, err := hdfs.New(hdfs.Config{DataNodes: 3, BlockSize: 1 << 20})
	if err != nil {
		b.Fatal(err)
	}
	sf := catalog.SegFile{Path: "/bench/scan"}
	w, err := NewWriter(fs, spec, testSchema(), sf, hdfs.CreateOptions{})
	if err != nil {
		b.Fatal(err)
	}
	for _, r := range rows {
		if err := w.Append(r); err != nil {
			b.Fatal(err)
		}
	}
	w.Close()
	sf.LogicalLen, sf.ColLens = w.Lens()
	return fs, spec, sf, len(rows)
}

func benchScanFormat(b *testing.B, orientation string) {
	fs, spec, sf, want := benchScanSetup(b, orientation)
	proj := []int{0, 1}
	b.Run("row", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			n := 0
			err := Scan(fs, spec, testSchema(), sf, proj, func(types.Row) error { n++; return nil })
			if err != nil {
				b.Fatal(err)
			}
			if n != want {
				b.Fatalf("scanned %d", n)
			}
		}
	})
	b.Run("batch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			n := 0
			err := ScanBatches(fs, spec, testSchema(), sf, proj, func(batch *types.Batch) error {
				n += batch.Len()
				types.PutBatch(batch)
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
			if n != want {
				b.Fatalf("scanned %d", n)
			}
		}
	})
}

// benchLowCardSetup writes a 20k-row table whose filter column holds 8
// values in contiguous runs — the clustered low-cardinality shape where
// pages RLE/dict-encode, per-page zone maps are tight, and the encoded
// path evaluates the predicate per run or distinct value instead of per
// row.
func benchLowCardSetup(b *testing.B, orientation string) (*hdfs.FileSystem, catalog.StorageSpec, catalog.SegFile, *types.Schema) {
	b.Helper()
	schema := types.NewSchema(
		types.Column{Name: "g", Kind: types.KindInt64},
		types.Column{Name: "v", Kind: types.KindInt64},
		types.Column{Name: "s", Kind: types.KindString},
	)
	spec := catalog.StorageSpec{Orientation: orientation, Codec: "quicklz"}
	fs, err := hdfs.New(hdfs.Config{DataNodes: 3, BlockSize: 1 << 20})
	if err != nil {
		b.Fatal(err)
	}
	sf := catalog.SegFile{Path: "/bench/lowcard"}
	w, err := NewWriter(fs, spec, schema, sf, hdfs.CreateOptions{})
	if err != nil {
		b.Fatal(err)
	}
	cats := make([]types.Datum, 8)
	for i := range cats {
		cats[i] = types.NewString(fmt.Sprintf("cat-%d", i))
	}
	for i := 0; i < 20000; i++ {
		g := i / 2500 // 8 runs of 2500
		if err := w.Append(types.Row{types.NewInt64(int64(g)), types.NewInt64(int64(i)), cats[g]}); err != nil {
			b.Fatal(err)
		}
	}
	w.Close()
	sf.LogicalLen, sf.ColLens = w.Lens()
	return fs, spec, sf, schema
}

// benchEncodedFilter pits the materialize-then-filter batch path
// against the encoded path (zone-map page skipping, FilterVec on
// still-encoded vectors, then materializing only the survivors) on a
// selective low-cardinality predicate — the same pipeline the executor
// builds from a scan filter. Both deliver the same decoded rows to the
// consumer.
func benchEncodedFilter(b *testing.B, orientation string) {
	fs, spec, sf, schema := benchLowCardSetup(b, orientation)
	proj := []int{0, 1, 2}
	pred := expr.NewBinOp(expr.OpEq, &expr.ColRef{Idx: 0, K: types.KindInt64}, expr.NewConst(types.NewInt64(3)))
	zpreds := []ZonePred{{Col: 0, Op: ZoneEq, Val: types.NewInt64(3)}}
	const want = 20000 / 8
	b.Run("filter-batch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			n := 0
			err := ScanBatches(fs, spec, schema, sf, proj, func(batch *types.Batch) error {
				if err := expr.FilterBatch(pred, batch); err != nil {
					return err
				}
				n += batch.Len()
				types.PutBatch(batch)
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
			if n != want {
				b.Fatalf("filtered to %d", n)
			}
		}
	})
	b.Run("encoded", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			n := 0
			out := types.GetBatch(0)
			err := ScanVecBatches(fs, spec, schema, sf, proj, zpreds, nil, func(vb *types.VecBatch) error {
				defer types.PutVecBatch(vb)
				if _, err := expr.FilterVec(pred, vb); err != nil {
					return err
				}
				if vb.SelCount() == 0 {
					return nil
				}
				if err := vb.Materialize(out); err != nil {
					return err
				}
				n += out.Len()
				return nil
			})
			types.PutBatch(out)
			if err != nil {
				b.Fatal(err)
			}
			if n != want {
				b.Fatalf("filtered to %d", n)
			}
		}
	})
}

// BenchmarkScanAO compares row-at-a-time and batch AO scans, and times
// a point lookup whose key predicate is pushed into the AO scan.
func BenchmarkScanAO(b *testing.B) {
	benchScanFormat(b, catalog.OrientRow)
	benchAOPointPred(b)
}

// benchAOPointPred scans a 4096-row AO lane for the one row matching a
// key equality, the segment-sized scan behind a single-row lookup: the
// predicate hint is tested on stored bytes, so only the match is
// decoded.
func benchAOPointPred(b *testing.B) {
	fs, err := hdfs.New(hdfs.Config{DataNodes: 3, BlockSize: 1 << 20})
	if err != nil {
		b.Fatal(err)
	}
	spec := catalog.StorageSpec{Orientation: catalog.OrientRow, Codec: "quicklz"}
	sf := catalog.SegFile{Path: "/bench/point"}
	w, err := NewWriter(fs, spec, testSchema(), sf, hdfs.CreateOptions{})
	if err != nil {
		b.Fatal(err)
	}
	for _, r := range testRows(4096) {
		if err := w.Append(r); err != nil {
			b.Fatal(err)
		}
	}
	w.Close()
	sf.LogicalLen, _ = w.Lens()
	key := types.NewInt64(2048)
	pred := expr.NewBinOp(expr.OpEq, &expr.ColRef{Idx: 0, K: types.KindInt64}, &expr.Param{K: types.KindInt64, V: key, Bound: true})
	preds := []ZonePred{{Col: 0, Op: ZoneEq, Val: key}}
	proj := []int{0, 1, 2, 3}
	b.Run("point-pred", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			n := 0
			err := ScanBatches(fs, spec, testSchema(), sf, proj, func(batch *types.Batch) error {
				defer types.PutBatch(batch)
				if err := expr.FilterBatch(pred, batch); err != nil {
					return err
				}
				n += batch.Len()
				return nil
			}, preds...)
			if err != nil {
				b.Fatal(err)
			}
			if n != 1 {
				b.Fatalf("lookup returned %d rows", n)
			}
		}
	})
}

// BenchmarkScanCO compares row-at-a-time, batch, and encoded CO scans.
func BenchmarkScanCO(b *testing.B) {
	benchScanFormat(b, catalog.OrientColumn)
	benchEncodedFilter(b, catalog.OrientColumn)
}

// BenchmarkScanParquet compares row-at-a-time and batch Parquet scans.
func BenchmarkScanParquet(b *testing.B) { benchScanFormat(b, catalog.OrientParquet) }
