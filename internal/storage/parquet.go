package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"hawq/internal/catalog"
	"hawq/internal/compress"
	"hawq/internal/hdfs"
	"hawq/internal/types"
)

// groupMagic marks a v1 row group: flat chunks, no page metadata.
// Readers still accept it for files written before encodings and zone
// maps existed.
const groupMagic = 0xB3

// groupMagicV2 marks a v2 row group carrying a per-column encoding
// byte and zone map ahead of the chunk lengths, so a scan can skip a
// group (or decide how to decode a chunk) from the header alone.
const groupMagicV2 = 0xB4

// parquetWriter writes the PAX-style format (§2.5): a single file of row
// groups. Each group stores every column's values as its own compressed
// chunk, so scans decompress only the columns they project while keeping
// all columns of a row set in one file — the Parquet trade-off versus CO.
//
// v2 group layout:
//
//	magic(1) | rowCount uvarint | ncols uvarint |
//	  per column: enc(1) | zoneLen uvarint | zone bytes |
//	  per column: chunkLen uvarint |
//	  per column: crc32(4) + compressed chunk bytes
//
// Like the CO writer, rows are buffered as datums so each flush can
// pick per-column page encodings and compute zone maps.
type parquetWriter struct {
	w      *hdfs.FileWriter
	codec  compress.Codec
	vals   [][]types.Datum
	size   int
	rows   int
	target int
	total  int64
	tuples int64
	// pageBuf is per-flush scratch for the encoded page payloads.
	pageBuf []byte
}

func newParquetWriter(fs *hdfs.FileSystem, codec compress.Codec, schema *types.Schema, sf catalog.SegFile, opts hdfs.CreateOptions) (*parquetWriter, error) {
	w, err := fs.CreateOrAppend(sf.Path, opts)
	if err != nil {
		return nil, err
	}
	return &parquetWriter{
		w:      w,
		codec:  codec,
		vals:   make([][]types.Datum, schema.Len()),
		target: DefaultBlockTarget,
		total:  sf.LogicalLen,
		tuples: sf.Tuples,
	}, nil
}

// Append implements Writer.
func (w *parquetWriter) Append(row types.Row) error {
	if len(row) != len(w.vals) {
		return fmt.Errorf("storage: parquet row width %d, want %d", len(row), len(w.vals))
	}
	for i, d := range row {
		w.vals[i] = append(w.vals[i], d)
		w.size += datumSizeEst(d)
	}
	w.rows++
	w.tuples++
	if w.size >= w.target*len(w.vals) {
		return w.Flush()
	}
	return nil
}

// Flush implements Writer: writes one v2 row group.
func (w *parquetWriter) Flush() error {
	if w.rows == 0 {
		return nil
	}
	ncols := len(w.vals)
	encs := make([]byte, ncols)
	zones := make([][]byte, ncols)
	chunks := make([][]byte, ncols)
	for i, vals := range w.vals {
		var payload []byte
		encs[i], payload = encodePage(w.pageBuf[:0], vals)
		zones[i] = buildZone(nil, vals)
		chunks[i] = w.codec.Compress(nil, payload)
		w.pageBuf = payload[:0]
	}
	out := []byte{groupMagicV2}
	out = binary.AppendUvarint(out, uint64(w.rows))
	out = binary.AppendUvarint(out, uint64(ncols))
	for i := range w.vals {
		out = append(out, encs[i])
		out = binary.AppendUvarint(out, uint64(len(zones[i])))
		out = append(out, zones[i]...)
	}
	for _, c := range chunks {
		out = binary.AppendUvarint(out, uint64(len(c)))
	}
	for _, c := range chunks {
		var crc [4]byte
		binary.BigEndian.PutUint32(crc[:], crc32.ChecksumIEEE(c))
		out = append(out, crc[:]...)
		out = append(out, c...)
	}
	if _, err := w.w.Write(out); err != nil {
		return err
	}
	w.total += int64(len(out))
	for i := range w.vals {
		w.vals[i] = w.vals[i][:0]
	}
	w.rows = 0
	w.size = 0
	return nil
}

// Close implements Writer.
func (w *parquetWriter) Close() error {
	if err := w.Flush(); err != nil {
		return errors.Join(err, w.w.Close())
	}
	return w.w.Close()
}

// Lens implements Writer.
func (w *parquetWriter) Lens() (int64, []int64) { return w.total, nil }

// Tuples implements Writer.
func (w *parquetWriter) Tuples() int64 { return w.tuples }

// pqGroup is one parsed row-group header: everything needed for a skip
// decision plus the offsets to fetch individual chunks lazily.
type pqGroup struct {
	rows  int
	ncols int
	// encs and zones are per-column page metadata; nil slices for v1
	// groups (flat encoding, no zone information).
	encs      []byte
	zones     [][]byte
	chunkLens []int
	// offsets locates each column's crc32+chunk within d.
	offsets []int
	d       []byte
}

// chunk verifies and decompresses column c's chunk.
func (g *pqGroup) chunk(c int, codec compress.Codec) ([]byte, error) {
	if c >= g.ncols {
		return nil, fmt.Errorf("storage: projection column %d out of range", c)
	}
	raw := g.d[g.offsets[c]+4 : g.offsets[c]+4+g.chunkLens[c]]
	if crc32.ChecksumIEEE(raw) != binary.BigEndian.Uint32(g.d[g.offsets[c]:]) {
		return nil, fmt.Errorf("storage: chunk checksum mismatch (col %d)", c)
	}
	return codec.Decompress(nil, raw)
}

// enc returns column c's page encoding (flat for v1 groups).
func (g *pqGroup) enc(c int) byte {
	if g.encs == nil {
		return pageEncFlat
	}
	return g.encs[c]
}

// zone returns column c's zone bytes (nil for v1 groups).
func (g *pqGroup) zone(c int) []byte {
	if g.zones == nil {
		return nil
	}
	return g.zones[c]
}

// parseGroup parses the group header at data[pos:], returning the group
// and the offset of the next one.
func parseGroup(data []byte, pos int) (pqGroup, int, error) {
	var g pqGroup
	d := data[pos:]
	v2 := false
	switch d[0] {
	case groupMagic:
	case groupMagicV2:
		v2 = true
	default:
		return g, 0, fmt.Errorf("storage: bad row group magic 0x%02x at %d", d[0], pos)
	}
	p := 1
	rowCount, n := binary.Uvarint(d[p:])
	if n <= 0 {
		return g, 0, fmt.Errorf("storage: truncated group header")
	}
	p += n
	ncols, n := binary.Uvarint(d[p:])
	if n <= 0 {
		return g, 0, fmt.Errorf("storage: truncated group header")
	}
	p += n
	g.rows, g.ncols = int(rowCount), int(ncols)
	if v2 {
		g.encs = make([]byte, g.ncols)
		g.zones = make([][]byte, g.ncols)
		for i := 0; i < g.ncols; i++ {
			if p >= len(d) {
				return g, 0, fmt.Errorf("storage: truncated column metadata")
			}
			g.encs[i] = d[p]
			p++
			zoneLen, n := binary.Uvarint(d[p:])
			if n <= 0 {
				return g, 0, fmt.Errorf("storage: truncated column metadata")
			}
			p += n
			if uint64(len(d)-p) < zoneLen {
				return g, 0, fmt.Errorf("storage: truncated zone map")
			}
			g.zones[i] = d[p : p+int(zoneLen)]
			p += int(zoneLen)
		}
	}
	g.chunkLens = make([]int, g.ncols)
	for i := range g.chunkLens {
		l, n := binary.Uvarint(d[p:])
		if n <= 0 {
			return g, 0, fmt.Errorf("storage: truncated chunk length")
		}
		g.chunkLens[i] = int(l)
		p += n
	}
	g.offsets = make([]int, g.ncols)
	off := p
	for i := range g.chunkLens {
		g.offsets[i] = off
		off += 4 + g.chunkLens[i]
	}
	if off > len(d) {
		return g, 0, fmt.Errorf("storage: truncated row group body")
	}
	g.d = d
	return g, pos + off, nil
}

// scanParquetVec is the Parquet scan core: it walks row groups,
// consults the projected columns' zone maps before decompressing
// anything, and hands surviving groups to fn as still-encoded vectors.
func scanParquetVec(fs *hdfs.FileSystem, codec compress.Codec, sf catalog.SegFile, proj []int, preds []ZonePred, st *ScanStats, fn func(*types.VecBatch) error) error {
	data, err := readRegion(fs, sf.Path, sf.LogicalLen, nil)
	if err != nil {
		return err
	}
	pos := 0
	for pos < len(data) {
		g, next, err := parseGroup(data, pos)
		if err != nil {
			return err
		}
		pos = next
		skip := false
		for j, c := range proj {
			if c >= g.ncols {
				return fmt.Errorf("storage: projection column %d out of range", c)
			}
			if !pageMayMatch(g.zone(c), j, preds) {
				skip = true
				break
			}
		}
		if skip {
			st.notePageSkipped()
			continue
		}
		vb := types.GetVecBatch(len(proj))
		vb.SetLen(g.rows)
		for j, c := range proj {
			raw, err := g.chunk(c, codec)
			if err != nil {
				types.PutVecBatch(vb)
				return err
			}
			if err := decodePage(g.enc(c), raw, g.rows, &vb.Cols[j]); err != nil {
				types.PutVecBatch(vb)
				return err
			}
		}
		if err := fn(vb); err != nil {
			return err
		}
	}
	return nil
}

// scanParquet walks row groups, decompressing only projected columns.
func scanParquet(fs *hdfs.FileSystem, codec compress.Codec, schema *types.Schema, sf catalog.SegFile, proj []int, fn func(types.Row) error) error {
	cols := make([][]types.Datum, len(proj))
	return scanParquetVec(fs, codec, sf, proj, nil, nil, func(vb *types.VecBatch) error {
		n := vb.Len()
		for j := range vb.Cols {
			var err error
			cols[j], err = vb.Cols[j].Decode(cols[j][:0])
			if err != nil {
				types.PutVecBatch(vb)
				return err
			}
		}
		types.PutVecBatch(vb)
		for i := 0; i < n; i++ {
			out := make(types.Row, len(proj))
			for j := range cols {
				out[j] = cols[j][i]
			}
			if err := fn(out); err != nil {
				return err
			}
		}
		return nil
	})
}

// scanParquetBatches materializes each row group column-wise into one
// batch, exploiting the PAX layout. It accepts both v1 and v2 groups.
func scanParquetBatches(fs *hdfs.FileSystem, codec compress.Codec, sf catalog.SegFile, proj []int, fn func(*types.Batch) error) error {
	return scanParquetVec(fs, codec, sf, proj, nil, nil, func(vb *types.VecBatch) error {
		b := types.GetBatch(0)
		if err := vb.Materialize(b); err != nil {
			types.PutBatch(b)
			types.PutVecBatch(vb)
			return err
		}
		types.PutVecBatch(vb)
		return fn(b)
	})
}
