package storage

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"hawq/internal/catalog"
	"hawq/internal/compress"
	"hawq/internal/expr"
	"hawq/internal/hdfs"
	"hawq/internal/types"
)

// predSchema covers every kind the AO predicate hints compare in place.
func predSchema() *types.Schema {
	return types.NewSchema(
		types.Column{Name: "i32", Kind: types.KindInt32},
		types.Column{Name: "i64", Kind: types.KindInt64},
		types.Column{Name: "dec", Kind: types.KindDecimal, Scale: 2},
		types.Column{Name: "d", Kind: types.KindDate},
		types.Column{Name: "s", Kind: types.KindString},
	)
}

// predValue draws a value for column c from a small domain, so random
// predicates both match and miss; about one in nine is NULL.
func predValue(r *rand.Rand, c int) types.Datum {
	if r.Intn(9) == 0 {
		return types.Null
	}
	v := r.Intn(40)
	switch c {
	case 0:
		return types.NewInt32(int32(v - 20))
	case 1:
		return types.NewInt64(int64(v * 1000))
	case 2:
		return types.NewDecimal(int64(v*25), 2)
	case 3:
		return types.NewDate(int32(9000 + v))
	default:
		return types.NewString(fmt.Sprintf("s%02d", v))
	}
}

// predConst draws a comparison constant for column c, sometimes of
// another numeric kind than the column's, as the planner may bind.
func predConst(r *rand.Rand, c int) types.Datum {
	for {
		d := predValue(r, c)
		if d.IsNull() {
			continue
		}
		if r.Intn(3) == 0 {
			switch d.K {
			case types.KindInt32:
				return types.NewInt64(d.I)
			case types.KindInt64:
				return types.NewDecimal(d.I*100+int64(r.Intn(3)-1), 2)
			case types.KindDecimal:
				return types.NewFloat64(float64(d.I) / 100)
			}
		}
		return d
	}
}

// writePredTable writes rows as a multi-block AO lane: a small block
// target and small HDFS blocks make the scan cross both kinds of
// boundary.
func writePredTable(t *testing.T, rows []types.Row) (*hdfs.FileSystem, catalog.StorageSpec, catalog.SegFile) {
	t.Helper()
	fs := testFS(t)
	spec := catalog.StorageSpec{Orientation: catalog.OrientRow, Codec: "quicklz"}
	sf := catalog.SegFile{Path: "/data/pred/0/1"}
	w, err := NewWriter(fs, spec, predSchema(), sf, hdfs.CreateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	w.(*aoWriter).target = 2048
	for _, r := range rows {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	sf.LogicalLen, _ = w.Lens()
	return fs, spec, sf
}

// scanFiltered runs ScanBatches with preds, applies filter to every
// batch, and returns the surviving rows and how many rows the scan
// delivered before filtering.
func scanFiltered(t *testing.T, fs *hdfs.FileSystem, spec catalog.StorageSpec, sf catalog.SegFile, proj []int, filter expr.Expr, preds []ZonePred) ([]types.Row, int) {
	t.Helper()
	var out []types.Row
	delivered := 0
	err := ScanBatches(fs, spec, predSchema(), sf, proj, func(b *types.Batch) error {
		defer types.PutBatch(b)
		delivered += b.Len()
		if err := expr.FilterBatch(filter, b); err != nil {
			return err
		}
		for i := 0; i < b.Len(); i++ {
			out = append(out, b.Row(i).Clone())
		}
		return nil
	}, preds...)
	if err != nil {
		t.Fatal(err)
	}
	return out, delivered
}

var predOps = []struct {
	op   expr.BinOpKind
	zone ZoneOp
}{
	{expr.OpEq, ZoneEq}, {expr.OpNe, ZoneNe}, {expr.OpLt, ZoneLt},
	{expr.OpLe, ZoneLe}, {expr.OpGt, ZoneGt}, {expr.OpGe, ZoneGe},
}

// TestAOPredicateHintsKeepAnswers checks, over random projections and
// random conjunctions of col-op-Const and col-op-$n, that an AO scan
// given the conjuncts as hints and then filtered returns exactly the
// rows the unhinted scan returns after the same filter.
func TestAOPredicateHintsKeepAnswers(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	rows := make([]types.Row, 3000)
	for i := range rows {
		rows[i] = make(types.Row, 5)
		for c := range rows[i] {
			rows[i][c] = predValue(r, c)
		}
	}
	fs, spec, sf := writePredTable(t, rows)
	if h, err := fs.Stat(sf.Path); err != nil || h.Blocks < 4 {
		t.Fatalf("table spans %d HDFS blocks (%v), want several", h.Blocks, err)
	}
	pruned := 0
	for trial := 0; trial < 300; trial++ {
		proj := r.Perm(5)[:1+r.Intn(5)]
		var conj []expr.Expr
		var preds []ZonePred
		for n := 1 + r.Intn(3); n > 0; n-- {
			j := r.Intn(len(proj))
			kind := predSchema().Columns[proj[j]].Kind
			val := predConst(r, proj[j])
			op := predOps[r.Intn(len(predOps))]
			var rhs expr.Expr = expr.NewConst(val)
			if r.Intn(2) == 0 {
				rhs = &expr.Param{Idx: n - 1, K: val.K, V: val, Bound: true}
			}
			conj = append(conj, expr.NewBinOp(op.op, &expr.ColRef{Idx: j, K: kind}, rhs))
			preds = append(preds, ZonePred{Col: j, Op: op.zone, Val: val})
		}
		filter := expr.AndAll(conj)
		want, all := scanFiltered(t, fs, spec, sf, proj, filter, nil)
		got, delivered := scanFiltered(t, fs, spec, sf, proj, filter, preds)
		if all != len(rows) {
			t.Fatalf("unhinted scan delivered %d of %d rows", all, len(rows))
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: proj %v filter %v: hinted scan returned %d rows, unhinted %d", trial, proj, filter, len(got), len(want))
		}
		if delivered < len(want) {
			t.Fatalf("trial %d: hinted scan delivered %d rows, fewer than the %d answers", trial, delivered, len(want))
		}
		if delivered < all {
			pruned++
		}
	}
	if pruned < 100 {
		t.Fatalf("hints pruned rows in only %d of 300 trials", pruned)
	}
}

// TestAOCorruptRowBytesError frames corrupt row bytes in blocks with
// valid checksums, so only the row walk can notice: the scan must
// return an error, with or without hints, and never panic.
func TestAOCorruptRowBytesError(t *testing.T) {
	rows := make([]types.Row, 40)
	r := rand.New(rand.NewSource(5))
	for i := range rows {
		rows[i] = types.Row{types.NewInt32(int32(i)), types.NewInt64(int64(i)), types.NewDecimal(int64(i), 2), types.NewDate(int32(i)), types.NewString(fmt.Sprintf("row-%d", i))}
	}
	var raw []byte
	for _, row := range rows {
		raw = types.EncodeRow(raw, row)
	}
	first := types.EncodeRow(nil, rows[0])
	corrupt := map[string]func([]byte) []byte{
		"truncated":    func(b []byte) []byte { return b[:len(b)-3] },
		"bad kind":     func(b []byte) []byte { b[len(first)+1] = 0xEE; return b },
		"wide header":  func(b []byte) []byte { b[len(first)], b[len(first)+1] = 0xFF, 0x7F; return b },
		"long string":  func(b []byte) []byte { b[len(b)-len("row-39")-1] = 0x7F; return b },
		"missing rows": func(b []byte) []byte { return b[:len(first)*10] },
	}
	codec, err := compress.Lookup("none")
	if err != nil {
		t.Fatal(err)
	}
	spec := catalog.StorageSpec{Orientation: catalog.OrientRow, Codec: "none"}
	preds := []ZonePred{{Col: 4, Op: ZoneEq, Val: types.NewString("row-3")}, {Col: 0, Op: ZoneGe, Val: types.NewInt64(2)}}
	scan := func(block []byte, preds []ZonePred) (err error) {
		fs := testFS(t)
		sf := catalog.SegFile{Path: "/data/bad/0/1", LogicalLen: int64(len(block))}
		if err := fs.WriteFile(sf.Path, block, hdfs.CreateOptions{}); err != nil {
			t.Fatal(err)
		}
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("panic: %v", p)
				t.Error(err)
			}
		}()
		return ScanBatches(fs, spec, predSchema(), sf, nil, func(b *types.Batch) error {
			types.PutBatch(b)
			return nil
		}, preds...)
	}
	for name, mangle := range corrupt {
		block := appendBlock(nil, codec, len(rows), mangle(append([]byte(nil), raw...)))
		for _, p := range [][]ZonePred{nil, preds} {
			if err := scan(block, p); err == nil {
				t.Errorf("%s (hints %v): corrupt rows scanned without error", name, p != nil)
			}
		}
	}
	// Random byte flips may leave a valid encoding; they must only
	// never panic.
	for i := 0; i < 200; i++ {
		b := append([]byte(nil), raw...)
		b[r.Intn(len(b))] ^= byte(1 + r.Intn(255))
		scan(appendBlock(nil, codec, len(rows), b), preds)
	}
}
