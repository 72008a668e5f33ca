package vector_test

import (
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/vector"
)

func TestDotNormCosine(t *testing.T) {
	a := vector.Vec{1, 0, 0}
	b := vector.Vec{0, 1, 0}
	if vector.Dot(a, b) != 0 {
		t.Error("orthogonal dot should be 0")
	}
	if vector.Cosine(a, a) != 1 {
		t.Error("self cosine should be 1")
	}
	if vector.Cosine(a, vector.Vec{0, 0, 0}) != 0 {
		t.Error("zero-vector cosine should be 0")
	}
	if n := vector.Norm(vector.Vec{3, 4, 0}); n != 5 {
		t.Errorf("Norm = %v, want 5", n)
	}
}

func TestNormalizeProperty(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 200,
		Values: func(vals []reflect.Value, rng *rand.Rand) {
			v := make(vector.Vec, 8)
			for i := range v {
				v[i] = rng.Float32()*4 - 2
			}
			vals[0] = reflect.ValueOf(v)
		},
	}
	if err := quick.Check(func(v vector.Vec) bool {
		n0 := vector.Norm(v)
		vector.Normalize(v)
		n := vector.Norm(v)
		if n0 == 0 {
			return n == 0
		}
		return math.Abs(float64(n)-1) < 1e-4
	}, cfg); err != nil {
		t.Error(err)
	}
}

func TestAxpyScaleClone(t *testing.T) {
	a := vector.Vec{1, 2}
	b := vector.Clone(a)
	vector.Axpy(a, 2, vector.Vec{1, 1})
	if a[0] != 3 || a[1] != 4 {
		t.Errorf("Axpy wrong: %v", a)
	}
	if b[0] != 1 || b[1] != 2 {
		t.Error("Clone shares storage")
	}
	vector.Scale(a, 0.5)
	if a[0] != 1.5 || a[1] != 2 {
		t.Errorf("Scale wrong: %v", a)
	}
}

// FuzzDot4 checks Dot4 against Dot bit for bit: the fuzzer's bytes
// become a query and four rows of the same dimension, with any float32
// bit pattern (NaNs, infinities, subnormals) allowed.
func FuzzDot4(f *testing.F) {
	f.Add([]byte{}, uint8(1))
	f.Add([]byte{0, 0, 128, 63, 0, 0, 0, 64, 0, 0, 64, 64, 0, 0, 128, 64, 0, 0, 160, 64}, uint8(1))
	f.Add([]byte("a query and four rows of floats, some of them huge or tiny......"), uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, dim uint8) {
		n := int(dim)%16 + 1
		floats := make([]float32, 5*n)
		for i := range floats {
			if 4*i+4 <= len(data) {
				floats[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[4*i:]))
			}
		}
		q := vector.Vec(floats[:n])
		rows := []vector.Vec{floats[n : 2*n], floats[2*n : 3*n], floats[3*n : 4*n], floats[4*n:]}
		var got [4]float32
		got[0], got[1], got[2], got[3] = vector.Dot4(q, rows[0], rows[1], rows[2], rows[3])
		for r, row := range rows {
			want := vector.Dot(q, row)
			if math.Float32bits(got[r]) != math.Float32bits(want) && !(got[r] != got[r] && want != want) {
				t.Fatalf("row %d: Dot4 %v (%#x), Dot %v (%#x)", r, got[r], math.Float32bits(got[r]), want, math.Float32bits(want))
			}
		}
	})
}
