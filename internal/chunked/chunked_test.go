package chunked

import (
	"math/rand"
	"testing"
)

func TestAppendAtRoundTrip(t *testing.T) {
	var l Log[float64]
	const n = 3*Size + 17
	ref := make([]float64, 0, n)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < n; i++ {
		v := rng.Float64()
		l.Append(v)
		ref = append(ref, v)
		if l.Len() != i+1 {
			t.Fatalf("len %d after %d appends", l.Len(), i+1)
		}
	}
	for i, want := range ref {
		if got := l.At(i); got != want {
			t.Fatalf("At(%d) = %v, want %v", i, got, want)
		}
	}
	all := l.CopyAll()
	if len(all) != n {
		t.Fatalf("CopyAll len %d, want %d", len(all), n)
	}
	for i := range all {
		if all[i] != ref[i] {
			t.Fatalf("CopyAll[%d] = %v, want %v", i, all[i], ref[i])
		}
	}
}

func TestAppendRangeCrossesChunks(t *testing.T) {
	var l Log[int]
	const n = 2*Size + 100
	for i := 0; i < n; i++ {
		l.Append(i)
	}
	for _, r := range [][2]int{{0, 0}, {0, n}, {Size - 1, Size + 1}, {Size, 2 * Size}, {2*Size - 3, 2*Size + 3}, {n - 1, n}} {
		got := l.AppendRange(nil, r[0], r[1])
		if len(got) != r[1]-r[0] {
			t.Fatalf("range [%d,%d): len %d", r[0], r[1], len(got))
		}
		for i, v := range got {
			if v != r[0]+i {
				t.Fatalf("range [%d,%d): element %d = %d", r[0], r[1], i, v)
			}
		}
	}
	// Appending into a prefilled dst preserves the prefix.
	dst := []int{-1, -2}
	dst = l.AppendRange(dst, 5, 9)
	want := []int{-1, -2, 5, 6, 7, 8}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("prefilled dst = %v, want %v", dst, want)
		}
	}
}

func TestFromSliceRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, Size - 1, Size, Size + 1, 2*Size + 5} {
		src := make([]float64, n)
		for i := range src {
			src[i] = float64(i) * 1.5
		}
		l := FromSlice(src)
		if l.Len() != n {
			t.Fatalf("n=%d: len %d", n, l.Len())
		}
		for i := range src {
			if l.At(i) != src[i] {
				t.Fatalf("n=%d: At(%d) = %v", n, i, l.At(i))
			}
		}
		// The log owns its copy: mutating the source must not show.
		if n > 0 {
			src[0] = -1
			if l.At(0) == -1 {
				t.Fatal("FromSlice aliases its input")
			}
		}
	}
}

func TestChunkPointerStability(t *testing.T) {
	var l Log[float64]
	l.Append(42)
	first := l.Chunk(0)
	for i := 1; i < 5*Size; i++ {
		l.Append(float64(i))
	}
	if &first[0] != &l.Chunk(0)[0] {
		t.Fatal("chunk 0 backing array moved during growth")
	}
	if first[0] != 42 {
		t.Fatalf("chunk 0 element clobbered: %v", first[0])
	}
	if got := l.Chunks(); got != 5 {
		t.Fatalf("Chunks() = %d, want 5", got)
	}
	if last := l.Chunk(4); len(last) != Size {
		t.Fatalf("full tail chunk has len %d", len(last))
	}
	l.Append(1)
	if last := l.Chunk(5); len(last) != 1 {
		t.Fatalf("fresh tail chunk has len %d", len(last))
	}
}

func TestOutOfRangePanics(t *testing.T) {
	var l Log[int]
	l.Append(1)
	for _, fn := range []func(){
		func() { l.At(-1) },
		func() { l.At(1) },
		func() { l.AppendRange(nil, 0, 2) },
		func() { l.AppendRange(nil, -1, 0) },
		func() { l.Chunk(1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}
