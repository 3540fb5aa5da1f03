package npy

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestRoundTripFloat64(t *testing.T) {
	want := []float64{1.5, -2.25, math.Pi, 0, math.MaxFloat64}
	a, err := NewFloat64([]int{5}, want)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Shape, []int{5}) {
		t.Errorf("shape = %v", got.Shape)
	}
	if !reflect.DeepEqual(got.Data.([]float64), want) {
		t.Errorf("data = %v", got.Data)
	}
}

func TestRoundTrip2DFloat32(t *testing.T) {
	// A patch-like 37×37 grid (the paper samples patches on a 37×37 grid).
	data := make([]float32, 37*37)
	for i := range data {
		data[i] = float32(i) * 0.001
	}
	b, err := Marshal(&Array{Shape: []int{37, 37}, Data: data})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Shape, []int{37, 37}) {
		t.Errorf("shape = %v", got.Shape)
	}
	if !reflect.DeepEqual(got.Data.([]float32), data) {
		t.Error("float32 data mismatch")
	}
}

// TestIntDtypesRejected: the workflow writes float32 patches and float64
// checkpoint coordinates only, and a checkpoint is outside input, so an
// integer array decodes to an error, not to data.
func TestIntDtypesRejected(t *testing.T) {
	for _, descr := range []string{"<i4", "<i8"} {
		b := headerOnly("{'descr': '"+descr+"', 'fortran_order': False, 'shape': (2,), }\n", 16)
		if _, err := Unmarshal(b); err == nil || !strings.Contains(err.Error(), "unsupported dtype") {
			t.Errorf("%s: err = %v, want unsupported dtype", descr, err)
		}
	}
	if _, err := Marshal(&Array{Shape: []int{2}, Data: []int64{1, 2}}); err == nil {
		t.Error("int64 data encoded")
	}
}

func TestZeroDimensionalAndEmpty(t *testing.T) {
	// Scalar (shape ()) arrays hold exactly one element.
	a := &Array{Shape: nil, Data: []float64{42}}
	b, err := Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Shape) != 0 || got.Data.([]float64)[0] != 42 {
		t.Errorf("scalar round-trip: %+v", got)
	}

	// Empty arrays (shape (0,)) are legal.
	e := &Array{Shape: []int{0}, Data: []float64{}}
	b, err = Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	got, err = Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 {
		t.Errorf("empty round-trip has %d elements", got.Len())
	}
}

func TestHeaderIsNumpyCompatible(t *testing.T) {
	a := &Array{Shape: []int{2, 3}, Data: []float32{1, 2, 3, 4, 5, 6}}
	b, err := Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	// Total header (magic..newline) must be 64-byte aligned and the dict
	// must carry the canonical keys.
	nl := bytes.IndexByte(b, '\n')
	if (nl+1)%64 != 0 {
		t.Errorf("header length %d not 64-aligned", nl+1)
	}
	h := string(b[10 : nl+1])
	for _, want := range []string{"'descr': '<f4'", "'fortran_order': False", "'shape': (2, 3)"} {
		if !strings.Contains(h, want) {
			t.Errorf("header %q missing %q", h, want)
		}
	}
}

func TestOneDimShapeHasTrailingComma(t *testing.T) {
	a := &Array{Shape: []int{9}, Data: make([]float64, 9)}
	b, err := Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(b, []byte("(9,)")) {
		t.Error("1-D shape tuple must serialize as (9,)")
	}
}

func TestValidationErrors(t *testing.T) {
	if _, err := NewFloat64([]int{3}, []float64{1}); err == nil {
		t.Error("shape/data mismatch not rejected")
	}
	if _, err := NewFloat64([]int{-1}, nil); err == nil {
		t.Error("negative dimension not rejected")
	}
	if err := Write(&bytes.Buffer{}, &Array{Shape: []int{1}, Data: []string{"x"}}); err == nil {
		t.Error("unsupported dtype not rejected")
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := map[string][]byte{
		"empty":       {},
		"bad magic":   []byte("NOTNUMPYxxxx"),
		"bad version": append(append([]byte{}, magic...), 9, 9, 0, 0),
	}
	for name, b := range cases {
		if _, err := Unmarshal(b); err == nil {
			t.Errorf("%s: decode succeeded", name)
		}
	}
	// Truncated data section.
	good, _ := Marshal(&Array{Shape: []int{4}, Data: []float64{1, 2, 3, 4}})
	if _, err := Unmarshal(good[:len(good)-8]); err == nil {
		t.Error("truncated data decoded without error")
	}
	if _, err := Unmarshal(append(good, 0)); err == nil {
		t.Error("trailing byte decoded without error")
	}
}

// headerOnly builds a v1.0 .npy prefix around a header dict, with data
// bytes after it.
func headerOnly(dict string, data int) []byte {
	b := append(append([]byte{}, magic...), 1, 0, byte(len(dict)), byte(len(dict)>>8))
	return append(append(b, dict...), make([]byte, data)...)
}

// TestCorruptShapeIsAnError: a header is untrusted input. A shape whose
// element count overflows int, or whose data is longer than the bytes
// that follow, must fail before anything is allocated: allocating what a
// 100-byte input claims (2^40 elements) is a fatal out-of-memory error
// that no recover catches.
func TestCorruptShapeIsAnError(t *testing.T) {
	for _, tc := range []struct{ shape, want string }{
		{"(1099511627776,)", "does not fill"},
		{"(4611686018427387904, 4)", "overflows int"},
		{"(4, 4611686018427387904)", "overflows int"},
		{"(3037000500, 3037000500)", "overflows int"},
		{"(2, 3)", "does not fill"},
	} {
		b := headerOnly("{'descr': '<f8', 'fortran_order': False, 'shape': "+tc.shape+", }\n", 40)
		if _, err := Unmarshal(b); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("shape %s: err = %v, want %q", tc.shape, err, tc.want)
		}
	}
}

func TestParseHeaderKeyOrderTolerance(t *testing.T) {
	// numpy always writes descr first, but readers should not rely on order.
	descr, fortran, shape, err := parseHeader(
		"{'fortran_order': False, 'shape': (3, 4), 'descr': '<f4', }")
	if err != nil {
		t.Fatal(err)
	}
	if descr != "<f4" || fortran || !reflect.DeepEqual(shape, []int{3, 4}) {
		t.Errorf("parsed %q %v %v", descr, fortran, shape)
	}
}

func TestParseHeaderRejectsFortran(t *testing.T) {
	hdrOnly := "{'descr': '<f8', 'fortran_order': True, 'shape': (2,), }\n"
	var buf bytes.Buffer
	buf.Write(magic)
	buf.Write([]byte{1, 0})
	buf.Write([]byte{byte(len(hdrOnly)), 0})
	buf.WriteString(hdrOnly)
	buf.Write(make([]byte, 16))
	if _, err := Unmarshal(buf.Bytes()); err == nil {
		t.Error("fortran_order=True must be rejected")
	}
}

func TestPropertyRoundTripFloat64(t *testing.T) {
	f := func(vals []float64) bool {
		for i, v := range vals {
			if math.IsNaN(v) {
				vals[i] = 0 // NaN != NaN breaks DeepEqual, not the codec
			}
		}
		a := &Array{Shape: []int{len(vals)}, Data: vals}
		b, err := Marshal(a)
		if err != nil {
			return false
		}
		got, err := Unmarshal(b)
		if err != nil {
			return false
		}
		if len(vals) == 0 {
			return got.Len() == 0
		}
		return reflect.DeepEqual(got.Data.([]float64), vals)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyRoundTrip2D(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r, c := 1+rng.Intn(20), 1+rng.Intn(20)
		data := make([]float32, r*c)
		for i := range data {
			data[i] = rng.Float32()
		}
		a := &Array{Shape: []int{r, c}, Data: data}
		b, err := Marshal(a)
		if err != nil {
			return false
		}
		got, err := Unmarshal(b)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(got.Shape, []int{r, c}) &&
			reflect.DeepEqual(got.Data.([]float32), data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
