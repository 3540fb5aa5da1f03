// Package npy implements a minimal, dependency-free codec for the NumPy
// .npy v1.0 array format. The paper stores patches "in a standard Numpy
// format" (~70 KB each) and serializes "a Numpy archive into a byte stream
// that can be redirected effortlessly to a file, an archive, or a database";
// this package is that byte-stream layer for mummi-go. Supported dtypes are
// little-endian float32 (patches) and float64 (checkpoint coordinates) in C
// (row-major) order, the two arrays the workflow moves.
package npy

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

var magic = []byte("\x93NUMPY")

// dtypeSize is the element size of each supported little-endian dtype.
var dtypeSize = map[string]int{"<f4": 4, "<f8": 8}

// Array is an n-dimensional array with a concrete element slice.
// Data must be a []float32 or a []float64, with len(Data) equal to the
// product of Shape.
type Array struct {
	Shape []int
	Data  any
}

// NewFloat64 builds a float64 Array, validating the shape/data agreement.
func NewFloat64(shape []int, data []float64) (*Array, error) {
	a := &Array{Shape: shape, Data: data}
	if _, _, err := a.validate(); err != nil {
		return nil, err
	}
	return a, nil
}

// Len returns the number of elements implied by Shape.
func (a *Array) Len() int {
	n := 1
	for _, s := range a.Shape {
		n *= s
	}
	return n
}

// validate checks Data against Shape and returns its dtype and element
// size.
func (a *Array) validate() (descr string, size int, err error) {
	var n int
	switch d := a.Data.(type) {
	case []float32:
		descr, size, n = "<f4", 4, len(d)
	case []float64:
		descr, size, n = "<f8", 8, len(d)
	default:
		return "", 0, fmt.Errorf("npy: unsupported data type %T", a.Data)
	}
	for _, s := range a.Shape {
		if s < 0 {
			return "", 0, fmt.Errorf("npy: negative dimension %d", s)
		}
	}
	if n != a.Len() {
		return "", 0, fmt.Errorf("npy: shape %v implies %d elements, data has %d", a.Shape, a.Len(), n)
	}
	return descr, size, nil
}

// Write encodes the array to w in .npy v1.0 format.
func Write(w io.Writer, a *Array) error {
	b, err := Marshal(a)
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// Marshal encodes the array to a byte slice in .npy v1.0 format.
func Marshal(a *Array) ([]byte, error) {
	descr, size, err := a.validate()
	if err != nil {
		return nil, err
	}
	shape := make([]string, len(a.Shape))
	for i, s := range a.Shape {
		shape[i] = strconv.Itoa(s)
	}
	shapeStr := strings.Join(shape, ", ")
	if len(a.Shape) == 1 {
		shapeStr += "," // numpy 1-tuples carry a trailing comma
	}
	header := fmt.Sprintf("{'descr': '%s', 'fortran_order': False, 'shape': (%s), }", descr, shapeStr)
	// Pad with spaces so magic+version+len+header is a multiple of 64 bytes,
	// ending in newline, exactly as numpy does.
	pre := len(magic) + 2 + 2
	total := pre + len(header) + 1
	pad := (64 - total%64) % 64
	header += strings.Repeat(" ", pad) + "\n"
	if len(header) > 0xFFFF {
		return nil, errors.New("npy: header too large for v1.0")
	}
	le := binary.LittleEndian
	out := make([]byte, 0, pre+len(header)+a.Len()*size)
	out = append(append(out, magic...), 1, 0)
	out = append(le.AppendUint16(out, uint16(len(header))), header...)
	switch d := a.Data.(type) {
	case []float32:
		for _, v := range d {
			out = le.AppendUint32(out, math.Float32bits(v))
		}
	case []float64:
		for _, v := range d {
			out = le.AppendUint64(out, math.Float64bits(v))
		}
	}
	return out, nil
}

// Unmarshal decodes one .npy array that fills b exactly. Every size the
// header claims is checked against the bytes that follow it before
// anything is allocated, so a corrupt header is an error, not a crash.
func Unmarshal(b []byte) (*Array, error) {
	pre := len(magic) + 2 + 2
	if len(b) < pre {
		return nil, fmt.Errorf("npy: short header: %d bytes", len(b))
	}
	if !bytes.Equal(b[:len(magic)], magic) {
		return nil, errors.New("npy: bad magic")
	}
	if b[6] != 1 || b[7] != 0 {
		return nil, fmt.Errorf("npy: unsupported version %d.%d", b[6], b[7])
	}
	le := binary.LittleEndian
	hlen := int(le.Uint16(b[8:10]))
	if len(b)-pre < hlen {
		return nil, fmt.Errorf("npy: short header dict: %d of %d bytes", len(b)-pre, hlen)
	}
	descr, fortran, shape, err := parseHeader(string(b[pre : pre+hlen]))
	if err != nil {
		return nil, err
	}
	if fortran {
		return nil, errors.New("npy: fortran_order arrays not supported")
	}
	size, ok := dtypeSize[descr]
	if !ok {
		return nil, fmt.Errorf("npy: unsupported dtype %q", descr)
	}
	n := 1
	for _, s := range shape {
		if s < 0 {
			return nil, fmt.Errorf("npy: negative dimension %d", s)
		}
		if s > 0 && n > math.MaxInt/s {
			return nil, fmt.Errorf("npy: shape %v overflows int", shape)
		}
		n *= s
	}
	body := b[pre+hlen:]
	if n > len(body)/size || n*size != len(body) {
		return nil, fmt.Errorf("npy: shape %v of %s does not fill the %d data bytes", shape, descr, len(body))
	}
	a := &Array{Shape: shape}
	switch descr {
	case "<f4":
		d := make([]float32, n)
		for i := range d {
			d[i] = math.Float32frombits(le.Uint32(body[4*i:]))
		}
		a.Data = d
	default:
		d := make([]float64, n)
		for i := range d {
			d[i] = math.Float64frombits(le.Uint64(body[8*i:]))
		}
		a.Data = d
	}
	return a, nil
}

// parseHeader parses the python-dict-literal header numpy writes. It
// tolerates arbitrary key order and whitespace but not nested structures
// beyond the shape tuple.
func parseHeader(h string) (descr string, fortran bool, shape []int, err error) {
	h = strings.TrimSpace(h)
	h = strings.TrimPrefix(h, "{")
	h = strings.TrimSuffix(strings.TrimSpace(h), "}")

	// Extract the shape tuple first so its commas don't confuse the split.
	si := strings.Index(h, "(")
	sj := strings.Index(h, ")")
	if si < 0 || sj < si {
		return "", false, nil, errors.New("npy: header missing shape tuple")
	}
	tup := h[si+1 : sj]
	rest := h[:si] + h[sj+1:]
	for _, part := range strings.Split(tup, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, convErr := strconv.Atoi(part)
		if convErr != nil {
			return "", false, nil, fmt.Errorf("npy: bad shape element %q", part)
		}
		shape = append(shape, v)
	}
	descr = ""
	sawFortran := false
	for _, kv := range strings.Split(rest, ",") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		i := strings.Index(kv, ":")
		if i < 0 {
			continue
		}
		key := strings.Trim(strings.TrimSpace(kv[:i]), "'\"")
		val := strings.TrimSpace(kv[i+1:])
		switch key {
		case "descr":
			descr = strings.Trim(val, "'\"")
		case "fortran_order":
			fortran = val == "True"
			sawFortran = true
		case "shape":
			// already handled via tuple extraction
		}
	}
	if descr == "" || !sawFortran {
		return "", false, nil, errors.New("npy: header missing descr or fortran_order")
	}
	return descr, fortran, shape, nil
}
