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

// Layer attribution of CPU-profile samples. Each sample is charged to one
// bucket, decided from its stack (innermost frame first):
//
//   - runtime.gc when any frame is garbage-collector or allocator work;
//   - runtime.sched when any frame is goroutine scheduling, parking, or a
//     channel or semaphore hand-off (the phased loop's per-cycle barrier);
//   - runtime.copy when the innermost frame is a runtime copy or clear
//     (duffcopy, memmove, ...), which is where large struct copies land;
//   - otherwise the layer of the innermost frame whose package belongs to a
//     layer. Standard-library helpers (math, sort, sync, encoding/json, the
//     rest of runtime, ...) and the simulator's leaf helper packages are
//     transparent: their time goes to the layer that called them;
//   - other when the first non-transparent frame belongs to no layer: the
//     benchmark's own code and telemetry.
var layerOfPackage = map[string]string{
	"gscalar/internal/sm":        "sm",
	"gscalar/internal/warp":      "warp",
	"gscalar/internal/core":      "core",
	"gscalar/internal/baseline":  "core",
	"gscalar/internal/regfile":   "regfile",
	"gscalar/internal/mem":       "mem",
	"gscalar/internal/power":     "power",
	"gscalar/internal/gpu":       "gpu",
	"gscalar/internal/kernel":    "kernel",
	"gscalar/internal/workloads": "build",
	"gscalar/internal/gen":       "build",
	"gscalar/internal/asm":       "build",
	"gscalar/internal/trace":     "trace",
	"gscalar/internal/store":     "store",
	"gscalar/internal/serve":     "serve",
	"net/http":                   "serve",
	"net/http/internal":          "serve",
	"net/textproto":              "serve",
	"net":                        "serve",
	"bufio":                      "serve",
}

// transparentSimPackages are simulator packages whose functions are helpers
// of their callers: the public API shim, instruction decoding, statistics
// accessors and point keys.
var transparentSimPackages = map[string]bool{
	"gscalar":                      true,
	"gscalar/internal/isa":         true,
	"gscalar/internal/stats":       true,
	"gscalar/internal/experiments": true,
}

var gcFrames = frameSet(
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.gcAssistAlloc1",
	"runtime.gcDrain", "runtime.gcDrainN", "runtime.markroot", "runtime.scanobject",
	"runtime.bgsweep", "runtime.sweepone", "runtime.bgscavenge", "runtime.gcStart",
	"runtime.gcMarkDone", "runtime.gcMarkTermination", "runtime.mallocgc",
	"runtime.wbBufFlush", "runtime.wbBufFlush1",
)

var schedFrames = frameSet(
	"runtime.schedule", "runtime.findRunnable", "runtime.park_m", "runtime.gopark",
	"runtime.goready", "runtime.ready", "runtime.wakep", "runtime.startm", "runtime.stopm",
	"runtime.mPark", "runtime.handoffp", "runtime.notesleep", "runtime.notewakeup",
	"runtime.futexsleep", "runtime.futexwakeup", "runtime.chansend", "runtime.chanrecv",
	"runtime.selectgo", "runtime.semacquire1", "runtime.semrelease1", "runtime.lock2",
	"runtime.unlock2", "runtime.goexit0", "runtime.newproc", "runtime.osyield",
	"runtime.usleep", "runtime.sysmon", "runtime.netpoll",
)

var copyFrames = frameSet(
	"runtime.duffcopy", "runtime.duffzero", "runtime.memmove", "runtime.memclrNoHeapPointers",
	"runtime.typedmemmove", "runtime.typedmemclr", "runtime.typedslicecopy",
	"runtime.wbMove", "runtime.bulkBarrierPreWrite",
)

func frameSet(names ...string) map[string]bool {
	m := make(map[string]bool, len(names))
	for _, n := range names {
		m[n] = true
	}
	return m
}

// layerOf returns the bucket a sample with this stack is charged to.
func layerOf(stack []string) string {
	for _, fn := range stack {
		if gcFrames[fn] {
			return "runtime.gc"
		}
	}
	for _, fn := range stack {
		if schedFrames[fn] {
			return "runtime.sched"
		}
	}
	if len(stack) > 0 && copyFrames[stack[0]] {
		return "runtime.copy"
	}
	for _, fn := range stack {
		pkg := packageOf(fn)
		if l, ok := layerOfPackage[pkg]; ok {
			return l
		}
		if pkg == "main" || strings.HasPrefix(pkg, "gscalar") && !transparentSimPackages[pkg] {
			return "other"
		}
	}
	return "other"
}

// packageOf extracts the import path from a profile function name such as
// "gscalar/internal/sm.(*SM).Cycle" or "slices.SortFunc[...]".
func packageOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	start := strings.LastIndexByte(fn, '/') + 1
	if dot := strings.IndexByte(fn[start:], '.'); dot >= 0 {
		return fn[:start+dot]
	}
	return fn
}

// addLayerSeconds decodes a CPU profile and adds its samples' CPU seconds to
// dst by bucket.
func addLayerSeconds(dst map[string]float64, profile []byte) error {
	samples, err := decodeProfile(profile)
	if err != nil {
		return err
	}
	for _, s := range samples {
		dst[layerOf(s.stack)] += float64(s.nanos) / 1e9
	}
	return nil
}

// profSample is one decoded CPU-profile sample: its stack, innermost frame
// (and innermost inlined function) first, and the CPU time it stands for.
type profSample struct {
	stack []string
	nanos int64
}

var errBadProfile = errors.New("profile: malformed protobuf")

// decodeProfile reads the gzip-compressed profile.proto that runtime/pprof
// writes, keeping only what attribution needs: sample stacks (field 2),
// locations (4) with their inlined-function lines, functions (5) and the
// string table (6). Go CPU profiles carry two values per sample, a count
// and CPU nanoseconds; the second is used.
func decodeProfile(data []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct{ locs, vals []uint64 }
	var (
		samples  []rawSample
		locFuncs = map[uint64][]uint64{}
		funcName = map[uint64]uint64{}
		strs     []string
	)
	err = eachField(raw, func(num, wire int, v uint64, b []byte) error {
		switch num {
		case 2:
			var s rawSample
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				var err error
				switch num {
				case 1:
					s.locs, err = appendVarints(s.locs, wire, v, b)
				case 2:
					s.vals, err = appendVarints(s.vals, wire, v, b)
				}
				return err
			})
			samples = append(samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					return eachField(b, func(num, wire int, v uint64, b []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5:
			var id, name uint64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		if len(s.vals) < 2 {
			return nil, fmt.Errorf("profile: sample has %d values, want count and nanoseconds", len(s.vals))
		}
		var stack []string
		for _, l := range s.locs {
			for _, f := range locFuncs[l] {
				if i := funcName[f]; i < uint64(len(strs)) {
					stack = append(stack, strs[i])
				}
			}
		}
		out = append(out, profSample{stack: stack, nanos: int64(s.vals[1])})
	}
	return out, nil
}

// eachField walks the fields of one protobuf message, passing a varint
// field's value in v and a length-delimited field's payload in b.
func eachField(msg []byte, f func(num, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errBadProfile
		}
		msg = msg[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errBadProfile
			}
			msg = msg[n:]
		case 1, 5:
			size := 8
			if wire == 5 {
				size = 4
			}
			if len(msg) < size {
				return errBadProfile
			}
			msg = msg[size:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || l > uint64(len(msg)-n) {
				return errBadProfile
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		default:
			return errBadProfile
		}
		if err := f(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field in either encoding: one
// value per field (wire type 0) or packed into one payload (wire type 2).
func appendVarints(dst []uint64, wire int, v uint64, b []byte) ([]uint64, error) {
	if wire == 0 {
		return append(dst, v), nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errBadProfile
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst, nil
}
