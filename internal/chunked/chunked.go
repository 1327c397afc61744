// Package chunked provides the session-lifetime history storage of the
// accounting hot path: an append-only log laid out as fixed-size chunks
// so that appending NEVER moves settled elements. The hand-doubled
// slices it replaces (core.Accountant's eps/bpl, stream.Server's
// published/budgets) re-copied the whole history on every capacity
// doubling — ~2N elements of cold memmove over a session's life, which
// profiles as a top-line cost of multi-hour ingest. A chunked log pays
// none of that: an append writes one element into the tail chunk, a
// full tail allocates one fresh chunk, and the only thing that ever
// reallocates is the spine (the slice of chunk pointers — kilobytes
// per million elements, never the element data).
//
// The zero value is an empty, usable log. A Log is not safe for
// concurrent use; its owners (accountants, servers) serialize access
// under their own locks, exactly as they did for the plain slices.
package chunked

// shift sets the chunk size: 1<<shift elements per chunk. 4096 elements
// is 32 KiB of float64s — big enough that the spine stays tiny (one
// pointer per chunk), small enough that a short-lived session does not
// overallocate meaningfully.
const shift = 12

// Size is the number of elements per chunk.
const Size = 1 << shift

const mask = Size - 1

// Log is an append-only chunked sequence. Indexing is O(1) (a shift, a
// mask and two loads); appends are O(1) with no amortization debt on
// the element data.
type Log[T any] struct {
	spine [][]T
	n     int
}

// Len returns the number of elements appended so far.
func (l *Log[T]) Len() int { return l.n }

// Append adds v at index Len(). Settled elements never move: a full
// tail chunk allocates a fresh one, and only the spine (chunk
// pointers) is ever reallocated by append's growth.
func (l *Log[T]) Append(v T) {
	ci := l.n >> shift
	if ci == len(l.spine) {
		l.spine = append(l.spine, make([]T, Size))
	}
	l.spine[ci][l.n&mask] = v
	l.n++
}

// At returns the element at index i (0-based). It panics when i is out
// of range, matching slice semantics.
func (l *Log[T]) At(i int) T {
	if i < 0 || i >= l.n {
		panic("chunked: index out of range")
	}
	return l.spine[i>>shift][i&mask]
}

// AppendRange appends the elements with indices [from, to) to dst and
// returns it, copying chunk-by-chunk. It panics on an invalid range,
// matching slice semantics.
func (l *Log[T]) AppendRange(dst []T, from, to int) []T {
	if from < 0 || to > l.n || from > to {
		panic("chunked: range out of bounds")
	}
	if cap(dst)-len(dst) < to-from {
		grown := make([]T, len(dst), len(dst)+(to-from))
		copy(grown, dst)
		dst = grown
	}
	for from < to {
		chunk := l.spine[from>>shift]
		off := from & mask
		end := off + (to - from)
		if end > Size {
			end = Size
		}
		dst = append(dst, chunk[off:end]...)
		from += end - off
	}
	return dst
}

// CopyAll returns a fresh contiguous copy of the whole sequence (nil
// when empty, matching the append-copy idiom of the slices the log
// replaces).
func (l *Log[T]) CopyAll() []T {
	if l.n == 0 {
		return nil
	}
	return l.AppendRange(make([]T, 0, l.n), 0, l.n)
}

// Chunk returns the i-th chunk's elements as a live aliased view
// (read-only by convention; the tail chunk's settled prefix is
// immutable). Tests use it to pin down pointer stability — the
// zero-re-copy property is exactly "chunk 0's backing array never
// moves" — and iteration-heavy readers use it to walk the history
// without a per-element bounds recheck.
func (l *Log[T]) Chunk(i int) []T {
	if i < 0 || i > (l.n-1)>>shift || l.n == 0 {
		panic("chunked: chunk index out of range")
	}
	chunk := l.spine[i]
	if end := l.n - i<<shift; end < Size {
		return chunk[:end]
	}
	return chunk
}

// Chunks returns the number of chunks currently holding elements.
func (l *Log[T]) Chunks() int {
	return (l.n + Size - 1) >> shift
}

// FromSlice builds a log holding a copy of s — the bulk-load path of
// Snapshot/Restore round-trips.
func FromSlice[T any](s []T) Log[T] {
	var l Log[T]
	l.spine = make([][]T, 0, (len(s)+Size-1)>>shift)
	for len(s) > 0 {
		chunk := make([]T, Size)
		n := copy(chunk, s)
		l.spine = append(l.spine, chunk)
		l.n += n
		s = s[n:]
	}
	return l
}
