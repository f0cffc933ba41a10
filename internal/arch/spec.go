package arch

import (
	"bufio"
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// This file implements the textual design-space specification of §4.2: a
// space's parameters can be declared with value lists or generator
// expressions, so users can comprehensively define vast spaces without
// writing Go (Appendix B: "comprehensive design space specification").
//
// Grammar (one declaration per line; '#' starts a comment):
//
//	freq <MHz>
//	param <name> list <v1> <v2> ...
//	param <name> range <lo> <hi> step <s>      # lo, lo+s, ..., <= hi
//	param <name> range <lo> <hi> mul <m>       # lo, lo*m, ..., <= hi
//	param <name> perel <lo> <hi> step <s> base <b>   # PE-relative multiplier
//
// Example (the Table 1 edge space):
//
//	freq 500
//	param PEs range 64 4096 mul 2
//	param L1_bytes range 8 1024 mul 2
//	param L2_KB range 64 4096 mul 2
//	param offchip_MBps list 1024 2048 4096 6400 8192 12800 19200 25600 38400 51200
//	param noc_width_bits range 16 256 step 16
//	param phys_unicast_W perel 1 64 step 1 base 64
//	...

// ParseSpace parses a design-space specification.
func ParseSpace(spec string) (*Space, error) {
	s := &Space{}
	sc := bufio.NewScanner(strings.NewReader(spec))
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = strings.TrimSpace(line[:i])
		}
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		var err error
		switch fields[0] {
		case "freq":
			err = parseFreq(s, fields)
		case "param":
			err = parseParam(s, fields)
		default:
			err = fmt.Errorf("unknown directive %q", fields[0])
		}
		if err != nil {
			return nil, fmt.Errorf("arch: spec line %d: %w", lineNo, err)
		}
	}
	if len(s.Params) == 0 {
		return nil, fmt.Errorf("arch: spec declares no parameters")
	}
	if s.FreqMHz <= 0 {
		return nil, fmt.Errorf("arch: spec declares no positive freq")
	}
	return s, nil
}

func parseFreq(s *Space, fields []string) error {
	if len(fields) != 2 {
		return fmt.Errorf("freq wants one value")
	}
	v, err := strconv.Atoi(fields[1])
	if err != nil || v <= 0 {
		return fmt.Errorf("bad freq %q", fields[1])
	}
	s.FreqMHz = v
	return nil
}

func parseParam(s *Space, fields []string) error {
	if len(fields) < 4 {
		return fmt.Errorf("param wants a name, a kind, and values")
	}
	name, kind := fields[1], fields[2]
	for _, p := range s.Params {
		if p.Name == name {
			return fmt.Errorf("duplicate parameter %q", name)
		}
	}
	p := Param{Name: name}
	rest := fields[3:]
	var err error
	switch kind {
	case "list":
		p.Values, err = atois(rest)
	case "range":
		p.Values, err = parseRange(rest)
	case "perel":
		var base int
		if len(rest) < 2 || rest[len(rest)-2] != "base" {
			return fmt.Errorf("perel wants a trailing 'base <b>'")
		}
		base, err = strconv.Atoi(rest[len(rest)-1])
		if err != nil || base <= 0 {
			return fmt.Errorf("bad perel base")
		}
		p.Kind = KindPERelative
		p.Base = base
		p.Values, err = parseRange(rest[:len(rest)-2])
	default:
		return fmt.Errorf("unknown param kind %q", kind)
	}
	if err != nil {
		return err
	}
	if len(p.Values) == 0 {
		return fmt.Errorf("parameter %q has no values", name)
	}
	for i := 1; i < len(p.Values); i++ {
		if p.Values[i] <= p.Values[i-1] {
			return fmt.Errorf("parameter %q values not strictly increasing", name)
		}
	}
	s.Params = append(s.Params, p)
	return nil
}

// parseRange parses "<lo> <hi> step <s>" or "<lo> <hi> mul <m>".
func parseRange(fields []string) ([]int, error) {
	if len(fields) != 4 {
		return nil, fmt.Errorf("range wants '<lo> <hi> step|mul <n>'")
	}
	lo, err1 := strconv.Atoi(fields[0])
	hi, err2 := strconv.Atoi(fields[1])
	n, err3 := strconv.Atoi(fields[3])
	if err1 != nil || err2 != nil || err3 != nil || lo <= 0 || hi < lo {
		return nil, fmt.Errorf("bad range bounds")
	}
	var vs []int
	switch fields[2] {
	case "step":
		if n <= 0 {
			return nil, fmt.Errorf("step must be positive")
		}
		for v := lo; v <= hi; v += n {
			vs = append(vs, v)
		}
	case "mul":
		if n <= 1 {
			return nil, fmt.Errorf("mul must exceed 1")
		}
		for v := lo; v <= hi; v *= n {
			vs = append(vs, v)
		}
	default:
		return nil, fmt.Errorf("range wants 'step' or 'mul', got %q", fields[2])
	}
	return vs, nil
}

func atois(fields []string) ([]int, error) {
	vs := make([]int, len(fields))
	for i, f := range fields {
		v, err := strconv.Atoi(f)
		if err != nil {
			return nil, fmt.Errorf("bad value %q", f)
		}
		vs[i] = v
	}
	return vs, nil
}

// EdgeSpaceSpec is the Table 1 space expressed in the §4.2 specification
// language, and the one definition of it: EdgeSpace parses it. Its
// parameters must stay in the order of the canonical indices PPEs … PVirt0.
const EdgeSpaceSpec = `
# Table 1: edge DNN inference accelerator design space.
freq 500
param PEs            range 64 4096 mul 2
param L1_bytes       range 8 1024 mul 2
param L2_KB          range 64 4096 mul 2
param offchip_MBps   list 1024 2048 4096 6400 8192 12800 19200 25600 38400 51200
param noc_width_bits range 16 256 step 16
param phys_unicast_W   perel 1 64 step 1 base 64
param phys_unicast_I   perel 1 64 step 1 base 64
param phys_unicast_Ord perel 1 64 step 1 base 64
param phys_unicast_Owr perel 1 64 step 1 base 64
param virt_unicast_W   list 1 8 64 512
param virt_unicast_I   list 1 8 64 512
param virt_unicast_Ord list 1 8 64 512
param virt_unicast_Owr list 1 8 64 512
`

// edgeSpace is EdgeSpaceSpec parsed once; EdgeSpace hands out copies.
var edgeSpace = func() *Space {
	s, err := ParseSpace(EdgeSpaceSpec)
	if err != nil {
		panic(err)
	}
	return s
}()

// EdgeSpace returns the Table 1 design space for edge DNN inference
// accelerators (EdgeSpaceSpec): 7 PE options, 8 L1 sizes, 7 L2 sizes, 10
// bandwidths, 16 NoC widths, 64 physical-unicast fractions and 4
// virtual-unicast degrees per operand NoC, at a fixed 500 MHz clock. Each
// call returns a fresh copy, so a caller may rewrite its parameters' Values
// (Fig4Space does).
func EdgeSpace() *Space {
	s := &Space{FreqMHz: edgeSpace.FreqMHz, Params: slices.Clone(edgeSpace.Params)}
	for i := range s.Params {
		s.Params[i].Values = slices.Clone(s.Params[i].Values)
	}
	return s
}
