package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// cpuProfile accumulates flat CPU time per Go package over one or more
// profiled intervals, read from runtime/pprof's own output.
type cpuProfile struct {
	byPkg map[string]int64
	total int64
	buf   bytes.Buffer
}

func newCPUProfile() *cpuProfile { return &cpuProfile{byPkg: make(map[string]int64)} }

func (c *cpuProfile) start() error {
	c.buf.Reset()
	return pprof.StartCPUProfile(&c.buf)
}

func (c *cpuProfile) stop() error {
	pprof.StopCPUProfile()
	return c.add(c.buf.Bytes())
}

func (c *cpuProfile) add(gz []byte) error {
	byPkg, total, err := flatByPackage(gz)
	if err != nil {
		return err
	}
	for p, v := range byPkg {
		c.byPkg[p] += v
	}
	c.total += total
	return nil
}

// share is the fraction of profiled CPU time whose leaf frame is in pkg
// (0 when nothing was sampled).
func (c *cpuProfile) share(pkg string) float64 {
	if c.total == 0 {
		return 0
	}
	return float64(c.byPkg[pkg]) / float64(c.total)
}

// flatByPackage decodes a gzipped pprof profile and sums each sample's
// last value (CPU nanoseconds for a CPU profile) by the package of its
// leaf function. Only the handful of profile.proto fields that need is
// read: sample (2), location (4), function (5) and string_table (6).
func flatByPackage(gz []byte) (map[string]int64, int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		loc uint64
		val int64
	}
	var (
		samples  []sample
		locFunc  = make(map[uint64]uint64) // location ID → innermost function ID
		funcName = make(map[uint64]int64)  // function ID → string index
		strs     []string
	)
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2:
			var locs []uint64
			var vals []uint64
			if err := fields(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					locs = appendRepeated(locs, v, b)
				case 2:
					vals = appendRepeated(vals, v, b)
				}
				return nil
			}); err != nil {
				return err
			}
			if len(locs) > 0 && len(vals) > 0 {
				samples = append(samples, sample{locs[0], int64(vals[len(vals)-1])})
			}
		case 4:
			var id, fn uint64
			var seenLine bool
			if err := fields(b, func(n int, v uint64, b []byte) error {
				switch {
				case n == 1:
					id = v
				case n == 4 && !seenLine:
					// The first line is the innermost inlined frame.
					seenLine = true
					return fields(b, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locFunc[id] = fn
		case 5:
			var id uint64
			var name int64
			if err := fields(b, func(n int, v uint64, _ []byte) error {
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
			funcName[id] = name
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	byPkg := make(map[string]int64)
	var total int64
	for _, s := range samples {
		pkg := "?"
		if idx, ok := funcName[locFunc[s.loc]]; ok && idx >= 0 && idx < int64(len(strs)) {
			pkg = packageOf(strs[idx])
		}
		byPkg[pkg] += s.val
		total += s.val
	}
	return byPkg, total, nil
}

// packageOf returns the import path of a symbol name such as
// "obm/internal/noc.(*Network).Step" → "obm/internal/noc".
func packageOf(fn string) string {
	slash := strings.LastIndex(fn, "/")
	dot := strings.Index(fn[slash+1:], ".")
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// appendRepeated appends a repeated varint field, whether it arrived
// packed (b non-nil) or as a single element.
func appendRepeated(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

var errProto = errors.New("profile: malformed protobuf")

// fields walks one protobuf message, calling fn with each field number
// and either its varint value (b nil) or its length-delimited bytes.
func fields(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errProto
		}
		msg = msg[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errProto
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errProto
			}
			v, msg = binary.LittleEndian.Uint64(msg), msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errProto
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
			if b == nil {
				b = []byte{}
			}
		case 5:
			if len(msg) < 4 {
				return errProto
			}
			v, msg = uint64(binary.LittleEndian.Uint32(msg)), msg[4:]
		default:
			return errProto
		}
		if err := fn(num, v, b); err != nil {
			return err
		}
	}
	return nil
}
