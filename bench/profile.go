package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"strings"
)

// cpuBuckets are the layers a CPU sample is attributed to, by the package
// of the function it was taken in. Each becomes a "<bucket>.cpu_share"
// metric; "other" holds samples whose function has no name.
var cpuBuckets = []string{"sim", "netsim", "topo", "tcp", "ratectl", "rft",
	"analysis", "probe", "exp", "bench", "stdlib", "runtime", "other"}

// bucketOf folds a fully qualified function name into a layer. Packages
// of this repository map to the layer that owns them; the Go runtime
// (scheduler, GC, malloc, maps, sync) is one bucket and the rest of the
// standard library (math/rand, strconv, encoding/csv, sort) another.
func bucketOf(fn string) string {
	if fn == "" {
		return "other"
	}
	// The package path ends at the first dot after the last slash.
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	pkg := fn
	if dot >= 0 {
		pkg = fn[:slash+1+dot]
	}
	if rest, ok := strings.CutPrefix(pkg, "repro/internal/"); ok {
		switch {
		case rest == "sim":
			return "sim"
		case rest == "netsim" || rest == "crosstraffic" || rest == "dummynet":
			return "netsim"
		case strings.HasPrefix(rest, "topo"):
			return "topo"
		case rest == "tcp" || rest == "tcptrace":
			return "tcp"
		case rest == "ratectl":
			return "ratectl"
		case strings.HasPrefix(rest, "apps"):
			return "rft"
		case rest == "analysis" || rest == "stats" || rest == "trace":
			return "analysis"
		case rest == "probe" || rest == "planetlab" || rest == "lossmodel":
			return "probe"
		default: // exp, core, and the glue beside them
			return "exp"
		}
	}
	switch {
	case pkg == "main" || strings.HasPrefix(pkg, "repro/"):
		return "bench"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") ||
		strings.HasPrefix(pkg, "internal/runtime") || pkg == "sync" || strings.HasPrefix(pkg, "sync/") ||
		strings.HasPrefix(pkg, "internal/abi") || strings.HasPrefix(pkg, "internal/bytealg") ||
		strings.HasPrefix(pkg, "internal/cpu") || strings.HasPrefix(pkg, "internal/race"):
		return "runtime"
	default:
		return "stdlib"
	}
}

// foldProfile reads a runtime/pprof CPU profile (a gzipped profile.proto
// message) and returns, per bucket, the share of samples whose leaf
// function — the innermost inlined frame of the first location — falls
// in it, and the number of samples. Only the four fields the fold needs
// are decoded; everything else in the message is skipped.
func foldProfile(data []byte) (shares map[string]float64, samples int64, err error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, 0, fmt.Errorf("bench: profile is not gzip: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("bench: inflate profile: %w", err)
	}

	var (
		strs     []string
		leafLoc  []uint64              // first location id of each sample
		counts   []int64               // first value (sample count) of each sample
		locFn    = map[uint64]uint64{} // location id -> leaf function id
		fnNameIx = map[uint64]int64{}  // function id -> string table index
	)
	err = eachField(raw, func(num int, varint uint64, msg []byte) error {
		switch num {
		case 2: // Sample
			var loc uint64
			var cnt int64
			var gotLoc, gotVal bool
			if err := eachField(msg, func(n int, v uint64, b []byte) error {
				take := func(x uint64) {
					if n == 1 && !gotLoc {
						loc, gotLoc = x, true
					}
					if n == 2 && !gotVal {
						cnt, gotVal = int64(x), true
					}
				}
				if n != 1 && n != 2 {
					return nil
				}
				if b == nil {
					take(v)
					return nil
				}
				for len(b) > 0 { // packed repeated varints
					x, k := binary.Uvarint(b)
					if k <= 0 {
						return fmt.Errorf("bench: bad packed varint in sample")
					}
					take(x)
					b = b[k:]
				}
				return nil
			}); err != nil {
				return err
			}
			if gotLoc {
				leafLoc = append(leafLoc, loc)
				counts = append(counts, cnt)
			}
		case 4: // Location
			var id, fn uint64
			var gotLine bool
			if err := eachField(msg, func(n int, v uint64, b []byte) error {
				switch {
				case n == 1:
					id = v
				case n == 4 && !gotLine: // first Line is the innermost frame
					gotLine = true
					return eachField(b, func(ln int, lv uint64, _ []byte) error {
						if ln == 1 {
							fn = lv
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locFn[id] = fn
		case 5: // Function
			var id uint64
			var name int64
			if err := eachField(msg, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			fnNameIx[id] = name
		case 6: // string_table
			strs = append(strs, string(msg))
		}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}

	shares = map[string]float64{}
	for i, loc := range leafLoc {
		name := ""
		if ix := fnNameIx[locFn[loc]]; ix > 0 && int(ix) < len(strs) {
			name = strs[ix]
		}
		shares[bucketOf(name)] += float64(counts[i])
		samples += counts[i]
	}
	for k := range shares {
		shares[k] /= float64(samples)
	}
	return shares, samples, nil
}

// eachField walks the fields of one protobuf message, calling fn with the
// field number and either its varint value (msg nil) or its
// length-delimited bytes. Fixed-width fields are skipped.
func eachField(b []byte, fn func(num int, varint uint64, msg []byte) error) error {
	for len(b) > 0 {
		key, k := binary.Uvarint(b)
		if k <= 0 {
			return fmt.Errorf("bench: bad field key in profile")
		}
		b = b[k:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, k := binary.Uvarint(b)
			if k <= 0 {
				return fmt.Errorf("bench: bad varint in profile")
			}
			b = b[k:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 2:
			n, k := binary.Uvarint(b)
			if k <= 0 || uint64(len(b)-k) < n {
				return fmt.Errorf("bench: truncated field %d in profile", num)
			}
			msg := b[k : k+int(n)]
			b = b[k+int(n):]
			if err := fn(num, 0, msg); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return fmt.Errorf("bench: truncated fixed64 in profile")
			}
			b = b[8:]
		case 5:
			if len(b) < 4 {
				return fmt.Errorf("bench: truncated fixed32 in profile")
			}
			b = b[4:]
		default:
			return fmt.Errorf("bench: unsupported wire type %d in profile", wire)
		}
	}
	return nil
}
