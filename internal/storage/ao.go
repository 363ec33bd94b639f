package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"

	"hawq/internal/catalog"
	"hawq/internal/compress"
	"hawq/internal/hdfs"
	"hawq/internal/types"
)

// aoWriter writes the row-oriented append-only format: a sequence of
// blocks, each holding whole encoded rows.
type aoWriter struct {
	w      *hdfs.FileWriter
	codec  compress.Codec
	buf    []byte
	rows   int
	target int
	total  int64
	tuples int64
}

func newAOWriter(fs *hdfs.FileSystem, codec compress.Codec, sf catalog.SegFile, opts hdfs.CreateOptions) (*aoWriter, error) {
	w, err := fs.CreateOrAppend(sf.Path, opts)
	if err != nil {
		return nil, err
	}
	return &aoWriter{
		w:      w,
		codec:  codec,
		target: DefaultBlockTarget,
		total:  sf.LogicalLen,
		tuples: sf.Tuples,
	}, nil
}

// Append implements Writer.
func (w *aoWriter) Append(row types.Row) error {
	w.buf = types.EncodeRow(w.buf, row)
	w.rows++
	w.tuples++
	if len(w.buf) >= w.target {
		return w.Flush()
	}
	return nil
}

// Flush implements Writer.
func (w *aoWriter) Flush() error {
	if w.rows == 0 {
		return nil
	}
	block := appendBlock(nil, w.codec, w.rows, w.buf)
	if _, err := w.w.Write(block); err != nil {
		return err
	}
	w.total += int64(len(block))
	w.buf = w.buf[:0]
	w.rows = 0
	return nil
}

// Close implements Writer.
func (w *aoWriter) Close() error {
	if err := w.Flush(); err != nil {
		return errors.Join(err, w.w.Close())
	}
	return w.w.Close()
}

// Lens implements Writer.
func (w *aoWriter) Lens() (int64, []int64) { return w.total, nil }

// Tuples implements Writer.
func (w *aoWriter) Tuples() int64 { return w.tuples }

// aoScanBufs are the buffers one AO batch scan reuses across blocks:
// the committed region read from HDFS, the decompressed block, and the
// column offsets of the current row. Scans share them through aoBufPool.
// DecodeDatum copies every string it returns, so no batch row points
// into them once a block is decoded.
type aoScanBufs struct {
	region []byte
	raw    []byte
	offs   []int
}

var aoBufPool = sync.Pool{New: func() any { return new(aoScanBufs) }}

// maxPooledAOBuf caps the buffers a scan returns to the pool, so one
// scan of a large segment file does not pin its region for the life of
// the process.
const maxPooledAOBuf = 1 << 20

func putAOScanBufs(b *aoScanBufs) {
	if cap(b.region) > maxPooledAOBuf {
		b.region = nil
	}
	if cap(b.raw) > maxPooledAOBuf {
		b.raw = nil
	}
	aoBufPool.Put(b)
}

// scanAOBatches decodes each AO block's rows into one batch. Each row's
// column offsets are found by stepping over its datums without decoding
// them; preds are tested on the stored bytes, and only the projected
// columns of rows that may pass are decoded into the batch arena.
func scanAOBatches(fs *hdfs.FileSystem, codec compress.Codec, sf catalog.SegFile, proj []int, preds []ZonePred, fn func(*types.Batch) error) error {
	bufs := aoBufPool.Get().(*aoScanBufs)
	defer putAOScanBufs(bufs)
	data, err := readRegion(fs, sf.Path, sf.LogicalLen, bufs.region)
	if err != nil {
		return err
	}
	bufs.region = data
	// Resolve the hints from projected columns to stored-row columns.
	var rowPreds []ZonePred
	for _, p := range preds {
		if p.Col >= 0 && p.Col < len(proj) && !p.Val.IsNull() {
			rowPreds = append(rowPreds, ZonePred{Col: proj[p.Col], Op: p.Op, Val: p.Val})
		}
	}
	it := &blockIter{data: data}
	for {
		h, err := it.nextHeader()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		raw, err := h.payload(codec, bufs.raw)
		if err != nil {
			return err
		}
		bufs.raw = raw
		b := types.GetBatch(len(proj))
		pos := 0
		for i := 0; i < h.rows; i++ {
			var n int
			bufs.offs, n, err = aoRowCols(raw[pos:], bufs.offs)
			if err != nil {
				types.PutBatch(b)
				return err
			}
			row, offs := raw[pos:pos+n], bufs.offs
			pos += n
			if !aoRowMayPass(row, offs, rowPreds) {
				continue
			}
			out := b.AddRow()
			for j, c := range proj {
				if c >= len(offs) {
					types.PutBatch(b)
					return fmt.Errorf("storage: AO projection column %d out of range (row width %d)", c, len(offs))
				}
				if out[j], _, err = types.DecodeDatum(row[offs[c]:]); err != nil {
					types.PutBatch(b)
					return err
				}
			}
		}
		if b.Len() == 0 {
			types.PutBatch(b)
			continue
		}
		if err := fn(b); err != nil {
			return err
		}
	}
}

// aoRowCols steps over the row encoded at the start of buf (the
// types.EncodeRow layout), recording each column datum's offset in offs,
// and returns the offsets and the row's encoded length. Nothing is
// decoded; corrupt or truncated bytes return an error.
func aoRowCols(buf []byte, offs []int) ([]int, int, error) {
	width, pos := binary.Uvarint(buf)
	if pos <= 0 {
		return offs, 0, fmt.Errorf("storage: truncated AO row header")
	}
	// Every datum takes at least one byte, so a wider header is corrupt.
	if width > uint64(len(buf)-pos) {
		return offs, 0, fmt.Errorf("storage: AO row header claims %d columns, only %d bytes left", width, len(buf)-pos)
	}
	offs = offs[:0]
	for c := 0; c < int(width); c++ {
		offs = append(offs, pos)
		n, err := types.SkipDatum(buf[pos:])
		if err != nil {
			return offs, 0, fmt.Errorf("storage: AO row column %d: %w", c, err)
		}
		pos += n
	}
	return offs, pos, nil
}

// aoRowMayPass reports whether the stored row whose column datums start
// at offs could satisfy every pred, each naming a column of the stored
// row. A NULL fails any comparison, as in
// SQL; a column past the row's width or a kind the comparison cannot
// order answers true, leaving the decision to the executor's filter.
func aoRowMayPass(row []byte, offs []int, preds []ZonePred) bool {
	for _, p := range preds {
		if p.Col >= len(offs) {
			continue
		}
		c, null, ok := compareStored(row[offs[p.Col]:], p.Val)
		if !ok {
			continue
		}
		if null || !zoneOpHolds(p.Op, c) {
			return false
		}
	}
	return true
}

// compareStored compares the datum encoded at the start of buf with
// want like types.Compare, without allocating: strings are compared in
// place. null reports a NULL datum; ok is false when the kinds are not
// comparable or the bytes do not parse.
func compareStored(buf []byte, want types.Datum) (c int, null, ok bool) {
	k := types.Kind(buf[0])
	if k == types.KindNull {
		return 0, true, true
	}
	if intLike(k) && intLike(want.K) || k == types.KindDate && want.K == types.KindDate {
		v, n := binary.Varint(buf[1:])
		if n <= 0 {
			return 0, false, false
		}
		switch {
		case v < want.I:
			return -1, false, true
		case v > want.I:
			return 1, false, true
		}
		return 0, false, true
	}
	if !zoneComparable(k, want.K) {
		return 0, false, false
	}
	if k == types.KindString || k == types.KindBytes {
		l, n := binary.Uvarint(buf[1:])
		if n <= 0 || uint64(len(buf)-1-n) < l {
			return 0, false, false
		}
		s := buf[1+n : 1+n+int(l)]
		switch {
		case string(s) < want.S:
			return -1, false, true
		case string(s) > want.S:
			return 1, false, true
		}
		return 0, false, true
	}
	d, _, err := types.DecodeDatum(buf)
	if err != nil {
		return 0, false, false
	}
	return types.Compare(d, want), false, true
}

// intLike reports whether k is an integer kind, stored as a plain
// varint of the value.
func intLike(k types.Kind) bool { return k == types.KindInt32 || k == types.KindInt64 }

// zoneOpHolds reports whether a comparison result c (stored value
// against the predicate constant) satisfies op.
func zoneOpHolds(op ZoneOp, c int) bool {
	switch op {
	case ZoneEq:
		return c == 0
	case ZoneNe:
		return c != 0
	case ZoneLt:
		return c < 0
	case ZoneLe:
		return c <= 0
	case ZoneGt:
		return c > 0
	case ZoneGe:
		return c >= 0
	}
	return true
}

// scanAO iterates the committed rows of an AO segment file.
func scanAO(fs *hdfs.FileSystem, codec compress.Codec, sf catalog.SegFile, proj []int, fn func(types.Row) error) error {
	data, err := readRegion(fs, sf.Path, sf.LogicalLen, nil)
	if err != nil {
		return err
	}
	it := &blockIter{data: data}
	for {
		rowCount, raw, err := it.next(codec)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		pos := 0
		for i := 0; i < rowCount; i++ {
			row, n, err := types.DecodeRow(raw[pos:])
			if err != nil {
				return err
			}
			pos += n
			out := make(types.Row, len(proj))
			for j, c := range proj {
				out[j] = row[c]
			}
			if err := fn(out); err != nil {
				return err
			}
		}
	}
}
