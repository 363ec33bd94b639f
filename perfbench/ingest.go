package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"hawq/internal/catalog"
	"hawq/internal/engine"
	"hawq/internal/hdfs"
	"hawq/internal/obs"
	"hawq/internal/sqlparser"
	"hawq/internal/storage"
	"hawq/internal/tpch"
	"hawq/internal/tx"
	"hawq/internal/types"
)

// The ingest workload: one session runs identical cycles. A cycle COPYs
// seeded lineitem rows in 1,000-row batches (one transaction each) into
// a column-oriented quicklz staging table, checks the batch just loaded
// with one Q1-shaped aggregate, and TRUNCATEs the table, so it never
// grows. It is the write side of the storage, HDFS and interconnect
// layers, plus transaction commit through the WAL and the CO encoded
// read path.
//
// The rows arrive in ship-date order, as a feed of shipped lines does,
// so each batch's CO pages cover a narrow ship-date range. The check
// reads the last batch's range — its zone maps let the scan skip the
// earlier batches' pages — and joins the lines to 1998's orders, whose
// hash-join build side publishes a runtime bloom filter that drops
// lines at the CO scan.

const (
	stageTable  = "lineitem_stage"
	ingestBatch = 1000
	// ingestBatchN is the batches a cycle loads. Each cycle checks once,
	// so fewer batches mean more checks in a window: at 4, about 100,
	// enough for a steady median check latency.
	ingestBatchN = 4
	// stageOrdersFrom is the check's lower bound on o_orderdate.
	stageOrdersFrom = "1998-01-01"
)

// Column position of o_orderdate in generated orders rows.
const oOrderdate = 4

// stageCheckSQL is the check aggregate over the lines shipped on or
// after shippedFrom.
func stageCheckSQL(shippedFrom string) string {
	return `SELECT l_returnflag, l_linestatus,
	sum(l_quantity) AS sum_qty,
	sum(l_extendedprice) AS sum_base_price,
	sum(l_extendedprice * (1 - l_discount)) AS sum_disc_price,
	count(*) AS count_order
FROM ` + stageTable + `, orders
WHERE l_orderkey = o_orderkey
	AND l_shipdate >= DATE '` + shippedFrom + `'
	AND o_orderdate >= DATE '` + stageOrdersFrom + `'
GROUP BY l_returnflag, l_linestatus
ORDER BY l_returnflag, l_linestatus`
}

// stageDDL is TPC-H's lineitem definition under the staging name, stored
// column-oriented with quicklz.
func stageDDL() (string, error) {
	for _, ddl := range tpch.DDL(tpch.StorageClause("column", "quicklz", 0), tpch.DistHash) {
		if strings.Contains(ddl, "CREATE TABLE lineitem (") {
			return strings.Replace(ddl, "CREATE TABLE lineitem (", "CREATE TABLE "+stageTable+" (", 1), nil
		}
	}
	return "", fmt.Errorf("no lineitem DDL")
}

// storageBench accumulates the traced window's direct storage calls.
type storageBench struct {
	writeTime, coTime time.Duration
	writeRows, coRows int64
}

func runIngest(cfg *config, r *rig) (*outcome, error) {
	s := r.e.NewSession()
	ddl, err := stageDDL()
	if err != nil {
		return nil, err
	}
	if _, err := s.Query(ddl); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	rows := make([]types.Row, ingestBatch*ingestBatchN)
	for i := range rows {
		rows[i] = r.data.lines[rng.Intn(len(r.data.lines))]
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i][lShipdate].I < rows[j][lShipdate].I })
	shippedFrom := rows[(ingestBatchN-1)*ingestBatch][lShipdate]
	checkSQL := stageCheckSQL(shippedFrom.String())
	ordersFrom := types.MustParseDate(stageOrdersFrom).I
	want := bruteQ1(rows, func(l types.Row) bool {
		return l[lShipdate].I >= shippedFrom.I && r.data.orders[l[0].I][oOrderdate].I >= ordersFrom
	}, false)

	tr := newTracer()
	lay := &layered{e: r.e, t: tr}
	w := &window{cfg: cfg}
	out := &outcome{metrics: map[string]float64{}}
	var sb storageBench
	// The deterministic per-cycle counts (HDFS bytes written, stored
	// bytes) come from the first cycle run entirely untraced: the warmup
	// cycle.
	var cycleWrite int64
	cycleTraced := false
	var firstWrite int64 = -1
	stored := -1.0

	var pass []step
	for b := 0; b < ingestBatchN; b++ {
		batch := rows[b*ingestBatch : (b+1)*ingestBatch]
		pass = append(pass, step{kind: "copy", run: func(traced bool) stepResult {
			cycleTraced = cycleTraced || traced
			before := obs.Value("hdfs.write_bytes")
			var n int64
			var err error
			if traced {
				n, err = tracedCopy(r.e, s, tr, &sb, batch)
			} else {
				n, err = s.CopyFrom(stageTable, batch)
			}
			cycleWrite += obs.Value("hdfs.write_bytes") - before
			if err == nil && n != int64(len(batch)) {
				err = fmt.Errorf("copied %d rows, want %d", n, len(batch))
			}
			return stepResult{rowsIn: int(n), err: err}
		}})
	}
	pass = append(pass, step{kind: "check", run: func(traced bool) stepResult {
		cycleTraced = cycleTraced || traced
		var got []types.Row
		if traced {
			if err := coDecode(r.e, &sb); err != nil {
				return stepResult{err: err}
			}
			o := tr.begin("check")
			var err error
			got, err = lay.query(o, checkSQL)
			o.end()
			if err != nil {
				return stepResult{err: err}
			}
		} else {
			res, err := s.Query(checkSQL)
			if err != nil {
				return stepResult{err: err}
			}
			got = res.Rows
		}
		if !aggregatesMatch(got, want) {
			return stepResult{rowsOut: len(got), err: fmt.Errorf("check aggregate %v, want %v", got, want)}
		}
		if !cycleTraced && stored < 0 {
			v, err := storedBytesPerRow(r.e, stageTable)
			if err != nil {
				return stepResult{rowsOut: len(got), err: err}
			}
			stored = v
		}
		return stepResult{rowsOut: len(got)}
	}})
	pass = append(pass, step{kind: "truncate", run: func(traced bool) stepResult {
		cycleTraced = cycleTraced || traced
		var err error
		if traced {
			o := tr.begin("truncate")
			err = o.span("engine.truncate", true, func() error {
				_, err := s.Query("TRUNCATE TABLE " + stageTable)
				return err
			})
			o.end()
		} else {
			_, err = s.Query("TRUNCATE TABLE " + stageTable)
		}
		if !cycleTraced && firstWrite < 0 {
			firstWrite = cycleWrite
		}
		cycleWrite, cycleTraced = 0, false
		return stepResult{err: err}
	}})

	sr, err := runSerial(cfg, pass, w, out)
	if err != nil {
		return nil, err
	}
	m := out.metrics
	lat, timed := sr.measured()
	rowsIn, rowsOut := sr.rows()
	if cfg.trace {
		writes := float64(len(lat.byKind["copy"]) + len(lat.byKind["truncate"]))
		sr.traceMetrics(m, w, tr, writes, float64(rowsIn))
		m["hdfs.write_bytes_per_row"] = ratio(float64(firstWrite), float64(len(rows)))
		// The check reads orders, an AO table.
		if m["storage.ao_decode_ns_per_row"], err = aoDecodeNsPerRow(r.e, "orders"); err != nil {
			return nil, err
		}
		m["storage.co_decode_ns_per_row"] = ratio(float64(sb.coTime), float64(sb.coRows))
		m["storage.write_ns_per_row"] = ratio(float64(sb.writeTime), float64(sb.writeRows))
		check, err := sqlparser.ParseOne(checkSQL)
		if err != nil {
			return nil, err
		}
		pv, err := planVariants(r.e, map[string]*sqlparser.SelectStmt{"check": check.(*sqlparser.SelectStmt)}, variantDraws)
		if err != nil {
			return nil, err
		}
		m["planner.offmodal_plan_ratio"] = pv.offModal()
		return out, nil
	}
	copies := lat.byKind["copy"]
	win := sr.untraced.Seconds()
	m["qps"] = float64(len(timed)) / win
	m["mean_ms"] = mean(copies)
	// About 400 batches a window: p90 leaves some 40 samples beyond it.
	m["tail_ms"] = quantile(copies, 0.90)
	m["suite_s"] = mean(durationsSeconds(sr.passes))
	m["geomean_ms"] = geomean(values(lat.kindMeans()))
	m["rows_per_s"] = float64(rowsIn+rowsOut) / win
	// About 100 checks a window, a sixth of them behind a retransmit
	// timeout: their mean moves with how many a run draws, their
	// median much less.
	m["check_ms"] = median(lat.byKind["check"])
	m["stored_bytes_per_row"] = stored
	r.peakHeapMB = w.peakMB
	out.report = append(out.report,
		fmt.Sprintf("ingest: %d rows in %d COPY batches over %.1fs (%d cycles); rows_per_s=%.0f copy_p50_ms=%.3f copy_p90_ms=%.3f check_p50_ms=%.3f drift=%+.3f",
			rowsIn, len(copies), win, len(sr.passes), m["rows_per_s"], quantile(copies, 0.5), m["tail_ms"], m["check_ms"], sr.drift()),
		fmt.Sprintf("error_ratio=%g", ratio(float64(out.failed), float64(out.attempted))))
	return out, nil
}

// tracedCopy loads one batch in an explicit transaction — BEGIN, COPY,
// COMMIT as spans — and then writes the same rows straight through
// storage.NewWriter into a scratch HDFS file, timing the storage
// layer's share of a COPY.
func tracedCopy(e *engine.Engine, s *engine.Session, tr *tracer, sb *storageBench, batch []types.Row) (int64, error) {
	o := tr.begin("copy")
	defer o.end()
	var n int64
	if err := o.span("tx.begin", true, func() error {
		_, err := s.Query("BEGIN")
		return err
	}); err != nil {
		return 0, err
	}
	if err := o.span("engine.copy", true, func() (err error) {
		n, err = s.CopyFrom(stageTable, batch)
		return err
	}); err != nil {
		_, rerr := s.Query("ROLLBACK")
		return 0, fmt.Errorf("%w (rollback: %v)", err, rerr)
	}
	if err := o.span("tx.commit", true, func() error {
		_, err := s.Query("COMMIT")
		return err
	}); err != nil {
		return 0, err
	}
	cl := e.Cluster()
	t := cl.TxMgr.Begin(tx.ReadCommitted)
	desc, err := cl.Cat().LookupTable(t.Snapshot(), stageTable)
	t.Abort()
	if err != nil {
		return 0, err
	}
	// A CO writer creates one file per column next to the lane path,
	// so the probe lives in its own directory.
	const dir = "/perfbench-write-probe"
	start := now()
	wr, err := storage.NewWriter(cl.FS, desc.Storage, desc.Schema, catalog.SegFile{Path: dir + "/lane"}, hdfs.CreateOptions{})
	if err != nil {
		return 0, err
	}
	for _, row := range batch {
		if err := wr.Append(row); err != nil {
			return 0, err
		}
	}
	if err := wr.Close(); err != nil {
		return 0, err
	}
	sb.writeTime += since(start)
	sb.writeRows += int64(len(batch))
	return n, cl.FS.Delete(dir, true)
}

// coDecode scans the staging table's committed CO files through
// storage.ScanVecBatches, timing the encoded read path per row.
func coDecode(e *engine.Engine, sb *storageBench) error {
	cl := e.Cluster()
	t := cl.TxMgr.Begin(tx.ReadCommitted)
	defer t.Abort()
	desc, err := cl.Cat().LookupTable(t.Snapshot(), stageTable)
	if err != nil {
		return err
	}
	start := now()
	for _, sf := range cl.Cat().AllSegFiles(t.Snapshot(), desc.OID) {
		if err := storage.ScanVecBatches(cl.FS, desc.Storage, desc.Schema, sf, nil, nil, nil, func(vb *types.VecBatch) error {
			sb.coRows += int64(vb.Len())
			return nil
		}); err != nil {
			return err
		}
	}
	sb.coTime += since(start)
	return nil
}

// aoDecodeNsPerRow scans the named tables' append-only row files through
// storage.ScanBatches three times and returns the median decode time per
// row.
func aoDecodeNsPerRow(e *engine.Engine, tables ...string) (float64, error) {
	cl := e.Cluster()
	t := cl.TxMgr.Begin(tx.ReadCommitted)
	defer t.Abort()
	type scan struct {
		desc  *catalog.TableDesc
		files []catalog.SegFile
	}
	var scans []scan
	for _, name := range tables {
		desc, err := cl.Cat().LookupTable(t.Snapshot(), name)
		if err != nil {
			return 0, err
		}
		scans = append(scans, scan{desc, cl.Cat().AllSegFiles(t.Snapshot(), desc.OID)})
	}
	var perRow []float64
	for rep := 0; rep < 3; rep++ {
		var rows int64
		start := now()
		for _, sc := range scans {
			for _, sf := range sc.files {
				if err := storage.ScanBatches(cl.FS, sc.desc.Storage, sc.desc.Schema, sf, nil, func(b *types.Batch) error {
					rows += int64(b.Len())
					return nil
				}); err != nil {
					return 0, err
				}
			}
		}
		perRow = append(perRow, ratio(float64(since(start)), float64(rows)))
	}
	return median(perRow), nil
}
