package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
)

// cpuProfile records a CPU profile into a file that the run keeps, so
// later changes can diff profiles with `go tool pprof -diff_base`.
type cpuProfile struct {
	path string
	f    *os.File
}

func startCPUProfile(path string) (*cpuProfile, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		return nil, errors.Join(err, f.Close())
	}
	return &cpuProfile{path: path, f: f}, nil
}

// stop ends the profile and returns each module's share of the CPU
// samples.
func (p *cpuProfile) stop() (map[string]float64, error) {
	pprof.StopCPUProfile()
	if err := p.f.Close(); err != nil {
		return nil, err
	}
	data, err := os.ReadFile(p.path)
	if err != nil {
		return nil, err
	}
	return moduleShares(data)
}

// moduleShares attributes every CPU sample of a gzipped pprof profile
// to the innermost hawq/internal/<module> frame on its stack ("other"
// when there is none) and returns each module's share of CPU time.
func moduleShares(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	prof, err := parseProfile(raw)
	if err != nil {
		return nil, err
	}
	byModule := map[string]float64{}
	var total float64
	for _, s := range prof.samples {
		v := s.value
		total += v
		byModule[prof.module(s.locations)] += v
	}
	shares := map[string]float64{}
	for _, mod := range cpuModules {
		shares[mod] = 0
	}
	for mod, v := range byModule {
		if _, known := shares[mod]; !known {
			mod = "other"
		}
		shares[mod] += ratio(v, total)
	}
	return shares, nil
}

// profile is the subset of the pprof protobuf the attribution needs.
type profile struct {
	strings   []string
	functions map[uint64]int64    // function id → name string index
	locations map[uint64][]uint64 // location id → function ids, innermost first
	samples   []sample
}

type sample struct {
	locations []uint64 // leaf first
	value     float64  // CPU nanoseconds (or sample count)
}

const internalPrefix = "hawq/internal/"

// module returns the module of the innermost hawq/internal frame.
func (p *profile) module(locs []uint64) string {
	for _, loc := range locs {
		for _, fn := range p.locations[loc] {
			idx := p.functions[fn]
			if idx < 0 || int(idx) >= len(p.strings) {
				continue
			}
			name := p.strings[idx]
			if rest, ok := strings.CutPrefix(name, internalPrefix); ok {
				if i := strings.IndexAny(rest, "./"); i > 0 {
					return rest[:i]
				}
				return rest
			}
		}
	}
	return "other"
}

// parseProfile decodes the pprof protobuf fields used above: sample (2),
// location (4), function (5) and string_table (6).
func parseProfile(b []byte) (*profile, error) {
	p := &profile{functions: map[uint64]int64{}, locations: map[uint64][]uint64{}}
	err := eachField(b, func(field int, wire int, v uint64, msg []byte) error {
		switch field {
		case 2:
			s, err := parseSample(msg)
			if err != nil {
				return err
			}
			p.samples = append(p.samples, s)
		case 4:
			var id uint64
			var fns []uint64
			if err := eachField(msg, func(f, w int, v uint64, m []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line{function_id = 1}
					return eachField(m, func(f, w int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			p.locations[id] = fns
		case 5:
			var id uint64
			var name int64
			if err := eachField(msg, func(f, w int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			p.functions[id] = name
		case 6:
			p.strings = append(p.strings, string(msg))
		}
		return nil
	})
	return p, err
}

func parseSample(msg []byte) (sample, error) {
	var s sample
	var vals []uint64
	err := eachField(msg, func(f, w int, v uint64, m []byte) error {
		var dst *[]uint64
		switch f {
		case 1:
			dst = &s.locations
		case 2:
			dst = &vals
		default:
			return nil
		}
		if w == 2 { // packed
			for len(m) > 0 {
				x, n := binary.Uvarint(m)
				if n <= 0 {
					return errors.New("profile: bad packed varint")
				}
				*dst = append(*dst, x)
				m = m[n:]
			}
			return nil
		}
		*dst = append(*dst, v)
		return nil
	})
	// Go CPU profiles carry [samples, cpu-nanoseconds]; use the time.
	if len(vals) > 0 {
		s.value = float64(vals[len(vals)-1])
	}
	return s, err
}

// eachField walks one protobuf message, calling fn with each field's
// number, wire type, varint value (wire types 0, 1, 5) or bytes (2).
func eachField(b []byte, fn func(field, wire int, v uint64, msg []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var msg []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			v = binary.LittleEndian.Uint64(b)
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			msg = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			v = uint64(binary.LittleEndian.Uint32(b))
			b = b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, msg); err != nil {
			return err
		}
	}
	return nil
}
