package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file folds a runtime/pprof CPU profile into per-layer self time.
// The standard library writes profiles but has no public reader, so the
// few protobuf fields the folding needs are decoded here directly
// (profile.proto: Profile.sample = 2, location = 4, function = 5,
// string_table = 6; Sample.location_id = 1, value = 2; Location.id = 1,
// line = 4; Line.function_id = 1; Function.id = 1, name = 2,
// filename = 4).

// Layer names the profile folds samples into.
const (
	layerTrace    = "trace"
	layerCPU      = "cpu"
	layerMem      = "mem"
	layerPrefetch = "prefetch"
	layerCore     = "core"
	layerSimSMT   = "simsmt"
	layerSMTWork  = "smtwork"
	layerHandler  = "serve.handler"
	layerCodec    = "serve.codec"
	layerLoadgen  = "loadgen"
	layerProbe    = "probe"
	layerBench    = "bench"
	layerOther    = "other"
)

// layerOf maps a function to its layer, or "" when the function belongs
// to no layer (the runtime, the standard library, helper packages such
// as xrand, the benchmark's own loops), in which case the sample is
// charged to the nearest caller that does. The machine-speed probe and
// the traced run's boundary wrappers (their clock reads and counters)
// have layers of their own, which no metric reports, so the cost the
// benchmark adds lands in no program layer.
func layerOf(fn, file string) string {
	switch {
	case fn == "main.probe":
		return layerProbe
	case strings.HasPrefix(fn, "main.(*traced"), strings.HasPrefix(fn, "main.(*statusWriter)"),
		strings.HasPrefix(fn, "main.struct {"):
		return layerBench
	}
	const prefix = "microbandit/internal/"
	if !strings.HasPrefix(fn, prefix) {
		return ""
	}
	rest := fn[len(prefix):]
	pkg := rest
	if i := strings.IndexByte(rest, '.'); i >= 0 {
		pkg = rest[:i]
	}
	switch pkg {
	case layerTrace, layerCPU, layerMem, layerPrefetch, layerCore, layerSimSMT, layerSMTWork:
		return pkg
	case "serve/loadgen":
		return layerLoadgen
	case "serve":
		if strings.HasSuffix(file, "/batchcodec.go") {
			return layerCodec
		}
		return layerHandler
	}
	return ""
}

// foldProfile returns CPU seconds per layer. A sample is charged to the
// innermost frame (inlined frames included) that belongs to a layer;
// samples with no such frame go to layerOther.
func foldProfile(data []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type function struct{ name, file int64 }
	var (
		strs      []string
		funcs     = map[uint64]function{}
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, innermost first
		samples   [][]uint64              // location ids, leaf first
		sampleNs  []int64
		parseErrs error
	)
	err = fields(raw, func(num int, wire int, v uint64, b []byte) {
		switch num {
		case 2: // Sample
			var locs []uint64
			var vals []int64
			parseErrs = errors.Join(parseErrs, fields(b, func(n, w int, v uint64, b []byte) {
				switch n {
				case 1:
					locs = appendUints(locs, w, v, b)
				case 2:
					for _, x := range appendUints(nil, w, v, b) {
						vals = append(vals, int64(x))
					}
				}
			}))
			// CPU profiles carry (samples, cpu nanoseconds).
			if len(vals) == 2 {
				samples = append(samples, locs)
				sampleNs = append(sampleNs, vals[1])
			}
		case 4: // Location
			var id uint64
			var fns []uint64
			parseErrs = errors.Join(parseErrs, fields(b, func(n, w int, v uint64, b []byte) {
				switch n {
				case 1:
					id = v
				case 4: // Line
					parseErrs = errors.Join(parseErrs, fields(b, func(n, w int, v uint64, _ []byte) {
						if n == 1 {
							fns = append(fns, v)
						}
					}))
				}
			}))
			locFuncs[id] = fns
		case 5: // Function
			var id uint64
			var f function
			parseErrs = errors.Join(parseErrs, fields(b, func(n, w int, v uint64, _ []byte) {
				switch n {
				case 1:
					id = v
				case 2:
					f.name = int64(v)
				case 4:
					f.file = int64(v)
				}
			}))
			funcs[id] = f
		case 6:
			strs = append(strs, string(b))
		}
	})
	if err = errors.Join(err, parseErrs); err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	str := func(i int64) string {
		if i >= 0 && int(i) < len(strs) {
			return strs[i]
		}
		return ""
	}
	out := map[string]float64{}
	for i, locs := range samples {
		layer := layerOther
	walk:
		for _, loc := range locs {
			for _, fid := range locFuncs[loc] {
				f := funcs[fid]
				if l := layerOf(str(f.name), str(f.file)); l != "" {
					layer = l
					break walk
				}
			}
		}
		out[layer] += float64(sampleNs[i]) / 1e9
	}
	return out, nil
}

// appendUints decodes a repeated uint64 field in either encoding: one
// varint per field occurrence, or a packed length-delimited run.
func appendUints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

// fields walks one protobuf message, calling fn with each field's number
// and wire type, plus its varint value or its length-delimited bytes.
func fields(b []byte, fn func(num, wire int, v uint64, b []byte)) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
			fn(num, wire, v, nil)
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			fn(num, wire, 0, b[n:n+int(l)])
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
	}
	return nil
}
