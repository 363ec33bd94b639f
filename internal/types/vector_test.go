package types

import (
	"encoding/binary"
	"math/rand"
	"reflect"
	"testing"
)

// randDatum returns a pseudo-random datum spanning every kind the
// storage formats write, including NULLs.
func randDatum(rng *rand.Rand) Datum {
	switch rng.Intn(7) {
	case 0:
		return Null
	case 1:
		return NewInt64(rng.Int63n(1000) - 500)
	case 2:
		return Datum{K: KindInt32, I: int64(int32(rng.Int31n(100)))}
	case 3:
		return Datum{K: KindFloat64, F: rng.NormFloat64()}
	case 4:
		return Datum{K: KindDecimal, Scale: 2, I: rng.Int63n(100000)}
	case 5:
		return Datum{K: KindDate, I: int64(rng.Intn(3650))}
	default:
		return NewString(string(rune('a' + rng.Intn(26))))
	}
}

// vecVariants builds every encoding of the same logical column.
func vecVariants(vals []Datum) []Vector {
	flat := Vector{Enc: VecFlat, N: len(vals), Values: append([]Datum(nil), vals...)}
	var raw []byte
	for _, d := range vals {
		raw = EncodeDatum(raw, d)
	}
	rawVec := Vector{Enc: VecRaw, N: len(vals), Raw: raw}
	var rle Vector
	rle.Enc = VecRLE
	rle.N = len(vals)
	for i := 0; i < len(vals); i++ {
		if len(rle.Values) > 0 && vals[i] == rle.Values[len(rle.Values)-1] {
			rle.Runs[len(rle.Runs)-1]++
			continue
		}
		rle.Values = append(rle.Values, vals[i])
		rle.Runs = append(rle.Runs, 1)
	}
	var dict Vector
	dict.Enc = VecDict
	dict.N = len(vals)
	seen := map[Datum]int32{}
	for _, d := range vals {
		c, ok := seen[d]
		if !ok {
			c = int32(len(dict.Values))
			seen[d] = c
			dict.Values = append(dict.Values, d)
		}
		dict.Codes = append(dict.Codes, c)
	}
	return []Vector{flat, rawVec, rle, dict}
}

// TestVectorDecodeAllEncodings checks Decode yields the original values
// for every encoding of the same column.
func TestVectorDecodeAllEncodings(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	vals := make([]Datum, 257)
	for i := range vals {
		vals[i] = randDatum(rng)
	}
	for _, v := range vecVariants(vals) {
		got, err := v.Decode(nil)
		if err != nil {
			t.Fatalf("enc %d: %v", v.Enc, err)
		}
		if !reflect.DeepEqual(got, vals) {
			t.Errorf("enc %d: decode mismatch", v.Enc)
		}
	}
}

// TestMaterializeHonorsSelection checks Materialize with and without a
// selection vector against a straightforward per-row reference, for
// every encoding.
func TestMaterializeHonorsSelection(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	vals := make([]Datum, 100)
	for i := range vals {
		vals[i] = randDatum(rng)
	}
	sels := [][]int32{nil, {}, {0}, {99}, {0, 1, 2, 97, 98, 99}, {13, 14, 15, 16, 50}}
	var everyThird []int32
	for i := int32(0); i < 100; i += 3 {
		everyThird = append(everyThird, i)
	}
	sels = append(sels, everyThird)
	for _, v := range vecVariants(vals) {
		for si, sel := range sels {
			vb := GetVecBatch(1)
			vb.Cols[0] = v
			vb.SetLen(v.N)
			vb.Sel = sel
			b := GetBatch(0)
			if err := vb.Materialize(b); err != nil {
				t.Fatalf("enc %d sel %d: %v", v.Enc, si, err)
			}
			want := len(vals)
			if sel != nil {
				want = len(sel)
			}
			if b.Len() != want {
				t.Fatalf("enc %d sel %d: got %d rows, want %d", v.Enc, si, b.Len(), want)
			}
			for oi := 0; oi < b.Len(); oi++ {
				ri := oi
				if sel != nil {
					ri = int(sel[oi])
				}
				if got := b.Row(oi)[0]; got != vals[ri] {
					t.Errorf("enc %d sel %d row %d: got %v want %v", v.Enc, si, oi, got, vals[ri])
				}
			}
			PutBatch(b)
			PutVecBatch(vb)
		}
	}
}

// TestSkipDatumMatchesDecode checks SkipDatum steps exactly as far as
// DecodeDatum for every kind.
func TestSkipDatumMatchesDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var buf []byte
	var sizes []int
	for i := 0; i < 500; i++ {
		before := len(buf)
		buf = EncodeDatum(buf, randDatum(rng))
		sizes = append(sizes, len(buf)-before)
	}
	pos := 0
	for i, want := range sizes {
		n, err := SkipDatum(buf[pos:])
		if err != nil {
			t.Fatalf("datum %d: %v", i, err)
		}
		if n != want {
			t.Fatalf("datum %d: skip %d bytes, decode consumed %d", i, n, want)
		}
		pos += n
	}
	if pos != len(buf) {
		t.Fatalf("skipped %d of %d bytes", pos, len(buf))
	}
}

// TestVecBatchPoolDoublePutPanics pins the double-return guard.
func TestVecBatchPoolDoublePutPanics(t *testing.T) {
	vb := GetVecBatch(1)
	PutVecBatch(vb)
	defer func() {
		if recover() == nil {
			t.Fatal("second PutVecBatch did not panic")
		}
	}()
	PutVecBatch(vb)
}

// TestVecPoolCountersBalance checks the gauge arithmetic.
func TestVecPoolCountersBalance(t *testing.T) {
	base := VecPoolInUse()
	vb := GetVecBatch(2)
	if got := VecPoolInUse(); got != base+1 {
		t.Fatalf("in_use after get = %d, want %d", got, base+1)
	}
	PutVecBatch(vb)
	if got := VecPoolInUse(); got != base {
		t.Fatalf("in_use after put = %d, want %d", got, base)
	}
}

// TestVarintLenMatchesVarint checks the value-free varint skip accepts
// and rejects exactly what binary.Varint does, truncated and
// overflowing encodings included.
func TestVarintLenMatchesVarint(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	check := func(b []byte) {
		_, want := binary.Varint(b)
		if want < 0 {
			want = 0
		}
		if got := varintLen(b); got != want {
			t.Fatalf("varintLen(% x) = %d, binary.Varint consumed %d", b, got, want)
		}
	}
	for i := 0; i < 20000; i++ {
		b := make([]byte, rng.Intn(13))
		for j := range b {
			// Mostly continuation bytes, so long and overflowing
			// encodings are common.
			b[j] = byte(rng.Intn(256)) | byte(rng.Intn(2)<<7)
		}
		check(b)
		check(binary.AppendVarint(nil, rng.Int63()-rng.Int63()))
	}
	check([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01})
	check([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x02})
}
