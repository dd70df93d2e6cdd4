package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// The traced run folds a runtime/pprof CPU profile by package into
// per-layer CPU shares. The profile is a gzipped profile.proto message;
// the few fields the fold needs are decoded here, since the standard
// library exports no reader for it.

// profileStack is one sample: the functions of its stack, leaf first,
// inlined frames expanded, the number of samples and CPU time it stands
// for, and whether it carries the benchmark's own label.
type profileStack struct {
	funcs   []string
	samples int64
	nanos   int64
	bench   bool
}

// benchLabel marks CPU samples of the benchmark's own work: checking
// results and, for the daemon, the load clients. foldShares leaves them
// out of the program's layer shares. Goroutines inherit the label from
// the goroutine that starts them.
var benchLabel = pprof.Labels("tcdbench", "bench")

// asBench runs fn with its CPU samples labelled as the benchmark's work.
func asBench(fn func()) {
	pprof.Do(context.Background(), benchLabel, func(context.Context) { fn() })
}

// cpuProfile records a CPU profile of everything fn does.
func cpuProfile(fn func()) ([]profileStack, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, err
	}
	fn()
	pprof.StopCPUProfile()
	return parseProfile(buf.Bytes())
}

// pbField is one decoded protobuf field: varint fields carry v,
// length-delimited ones b.
type pbField struct {
	num  int
	wire int
	v    uint64
	b    []byte
}

var errProto = errors.New("malformed profile protobuf")

func pbFields(data []byte, fn func(pbField) error) error {
	for len(data) > 0 {
		key, n := binary.Uvarint(data)
		if n <= 0 {
			return errProto
		}
		data = data[n:]
		f := pbField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			f.v, n = binary.Uvarint(data)
			if n <= 0 {
				return errProto
			}
			data = data[n:]
		case 1:
			if len(data) < 8 {
				return errProto
			}
			f.v = binary.LittleEndian.Uint64(data)
			data = data[8:]
		case 2:
			l, n := binary.Uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return errProto
			}
			f.b = data[n : n+int(l)]
			data = data[n+int(l):]
		case 5:
			if len(data) < 4 {
				return errProto
			}
			f.v = uint64(binary.LittleEndian.Uint32(data))
			data = data[4:]
		default:
			return errProto
		}
		if err := fn(f); err != nil {
			return err
		}
	}
	return nil
}

// pbInts appends the integers of a repeated scalar field, packed or not.
func pbInts(dst []uint64, f pbField) ([]uint64, error) {
	if f.wire == 0 {
		return append(dst, f.v), nil
	}
	if f.wire != 2 {
		return nil, errProto
	}
	for b := f.b; len(b) > 0; {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errProto
		}
		dst = append(dst, v)
		b = b[n:]
	}
	return dst, nil
}

// parseProfile decodes a gzipped profile.proto CPU profile into stacks.
// The CPU time of a sample is its last value (cpu/nanoseconds).
func parseProfile(gz []byte) ([]profileStack, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs, vals []uint64
		labels     [][2]uint64 // key, value string indexes
	}
	var (
		samples   []sample
		strs      []string
		funcNames = map[uint64]uint64{} // function id -> string index
		locFuncs  = map[uint64][]uint64{}
	)
	err = pbFields(data, func(f pbField) error {
		switch f.num {
		case 2: // sample
			var s sample
			err := pbFields(f.b, func(g pbField) (err error) {
				switch g.num {
				case 1:
					s.locs, err = pbInts(s.locs, g)
				case 2:
					s.vals, err = pbInts(s.vals, g)
				case 3: // label
					var kv [2]uint64
					err = pbFields(g.b, func(h pbField) error {
						if h.num == 1 || h.num == 2 {
							kv[h.num-1] = h.v
						}
						return nil
					})
					s.labels = append(s.labels, kv)
				}
				return err
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := pbFields(f.b, func(g pbField) error {
				switch g.num {
				case 1:
					id = g.v
				case 4: // line
					return pbFields(g.b, func(h pbField) error {
						if h.num == 1 {
							fns = append(fns, h.v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id, name uint64
			err := pbFields(f.b, func(g pbField) error {
				switch g.num {
				case 1:
					id = g.v
				case 2:
					name = g.v
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(f.b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]profileStack, 0, len(samples))
	for _, s := range samples {
		if len(s.vals) == 0 {
			continue
		}
		st := profileStack{samples: int64(s.vals[0]), nanos: int64(s.vals[len(s.vals)-1])}
		str := func(i uint64) string {
			if i < uint64(len(strs)) {
				return strs[i]
			}
			return ""
		}
		for _, kv := range s.labels {
			st.bench = st.bench || (str(kv[0]) == "tcdbench" && str(kv[1]) == "bench")
		}
		for _, loc := range s.locs {
			// A location's lines run from the innermost inlined
			// function to the caller it was inlined into.
			for _, fid := range locFuncs[loc] {
				st.funcs = append(st.funcs, str(funcNames[fid]))
			}
		}
		out = append(out, st)
	}
	return out, nil
}

const modulePrefix = "github.com/tcdnet/tcd/"

// funcPackage returns the import path of a profiled function name such
// as "github.com/tcdnet/tcd/internal/sim.(*Scheduler).Run" or
// "slices.SortFunc[...]".
func funcPackage(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // type arguments may hold other import paths
	}
	slash := strings.LastIndexByte(fn, '/') + 1
	if dot := strings.IndexByte(fn[slash:], '.'); dot >= 0 {
		return fn[:slash+dot]
	}
	return fn
}

// runtimeLayer classifies a runtime function as garbage collection,
// allocation, or neither (""). Allocator internals such as mcache refill
// are left unclassified: stackLayer walks on to the mallocgc, or the GC
// sweeper, that called them.
func runtimeLayer(fn string) string {
	name := strings.TrimPrefix(fn, "runtime.")
	switch {
	case strings.HasPrefix(name, "mallocgc"), name == "newobject",
		strings.HasPrefix(name, "makeslice"), strings.HasPrefix(name, "growslice"),
		strings.HasPrefix(name, "makemap"), name == "newarray",
		strings.HasPrefix(name, "rawstring"), strings.HasPrefix(name, "rawbyteslice"):
		return "alloc"
	case strings.Contains(name, "gc"), strings.Contains(name, "scanobject"),
		strings.Contains(name, "markroot"), strings.Contains(name, "greyobject"),
		strings.Contains(name, "sweep"), strings.Contains(name, "scavenge"),
		strings.Contains(name, "wbBuf"), strings.Contains(name, "Barrier"),
		strings.Contains(name, "scanstack"), strings.Contains(name, "scanblock"),
		strings.Contains(name, "markBits"), strings.Contains(name, "findObject"):
		return "gc"
	}
	return ""
}

// stackLayer names the layer a sample's CPU time is charged to. Outside
// the runtime that is the package of the leaf function (the flat
// profile): a package of this module by its directory under internal/
// or cmd/, a few standard-library packages by name, and "std" or
// "other" otherwise. Runtime time is charged to garbage collection or
// allocation when a GC or allocator function is on the stack, and to
// "runtime" when neither is.
func stackLayer(funcs []string) string {
	if len(funcs) == 0 {
		return "other"
	}
	pkg := funcPackage(funcs[0])
	if pkg == "runtime" {
		for _, fn := range funcs {
			if funcPackage(fn) != "runtime" {
				break
			}
			if l := runtimeLayer(fn); l != "" {
				return l
			}
		}
		return "runtime"
	}
	if rest, ok := strings.CutPrefix(pkg, modulePrefix); ok {
		parts := strings.Split(rest, "/")
		if parts[0] == "internal" && len(parts) > 1 {
			return parts[1] // internal/exp/sweep folds into exp
		}
		return parts[0]
	}
	switch {
	case pkg == "main":
		return "bench"
	case strings.HasPrefix(pkg, "net/http"):
		return "nethttp"
	case pkg == "encoding/json":
		return "json"
	case pkg == "net", pkg == "internal/poll", pkg == "syscall", strings.HasPrefix(pkg, "internal/runtime/syscall"):
		return "syscall"
	case !strings.Contains(strings.SplitN(pkg, "/", 2)[0], "."):
		return "std"
	}
	return "other"
}

// profileFold is a profile's CPU time folded by layer.
type profileFold struct {
	// shares maps each layer to its share of the program's CPU time,
	// which excludes samples labelled as the benchmark's own work.
	shares map[string]float64
	// programSamples counts the samples the shares stand on, allSamples
	// those of the whole profile.
	programSamples, allSamples int64
	// benchShare is the benchmark's own share of all CPU time sampled.
	benchShare float64
}

func foldShares(stacks []profileStack) profileFold {
	byLayer := make(map[string]int64)
	var program, bench int64
	f := profileFold{shares: make(map[string]float64)}
	for _, s := range stacks {
		f.allSamples += s.samples
		if s.bench {
			bench += s.nanos
			continue
		}
		byLayer[stackLayer(s.funcs)] += s.nanos
		program += s.nanos
		f.programSamples += s.samples
	}
	for l, n := range byLayer {
		f.shares[l] = float64(n) / float64(program)
	}
	if all := program + bench; all > 0 {
		f.benchShare = float64(bench) / float64(all)
	}
	return f
}
