package persist

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// Group commit. A journal append is durable only after an fsync. The
// GroupCommitter coalesces appends across all sessions of a process
// into groups: a leader goroutine collects requests for a bounded
// latency window, writes them in arrival order, issues one fsync per
// distinct journal touched by the group, and only then acknowledges.
// A group shares no fsync: callers hold their session's step lock
// across Append (see below), so a group never holds two requests for
// one journal, and the group's fsyncs run one after another.
//
// The durability contract is exactly per-append fsync's, batched:
//
//   - No acknowledgement before the record's bytes are fsync'd. A
//     record lost to a crash was never acked, so an idempotent retry
//     re-applies it — exactly-once holds end to end.
//   - Per-journal append order equals request order. Callers hold
//     their session's step lock across Append, so each journal has at
//     most one outstanding request and the single leader preserves
//     channel FIFO order on disk.
//   - A failed write poisons its journal for the remainder of the
//     group: appending after a partial record would bury readable
//     records behind an unverifiable tail (replay stops at the first
//     torn record). Earlier successful writes in the same group are
//     still fsync'd and acked.

// DefaultGroupWindow is the bounded latency a request may wait for
// companions before its group commits.
const DefaultGroupWindow = 2 * time.Millisecond

// maxGroupBatch bounds one group (memory and worst-case replay loss).
const maxGroupBatch = 1024

// ErrCommitterClosed is returned for appends after Close.
var ErrCommitterClosed = errors.New("persist: group committer closed")

// commitReq is one append waiting to join a group.
type commitReq struct {
	j       *Journal
	version uint32
	body    []byte
	err     error
	done    chan error
}

// GroupCommitter coalesces journal appends into shared fsyncs.
type GroupCommitter struct {
	window time.Duration
	reqs   chan *commitReq
	stop   chan struct{}
	wg     sync.WaitGroup

	mu     sync.RWMutex
	closed bool
}

// NewGroupCommitter starts a committer whose groups wait at most
// window for companions (<= 0 selects DefaultGroupWindow).
func NewGroupCommitter(window time.Duration) *GroupCommitter {
	if window <= 0 {
		window = DefaultGroupWindow
	}
	g := &GroupCommitter{
		window: window,
		reqs:   make(chan *commitReq, maxGroupBatch),
		stop:   make(chan struct{}),
	}
	g.wg.Add(1)
	go g.run()
	return g
}

// Append submits one record and blocks until it is written AND
// fsync'd (or failed). Safe for concurrent use.
//
//tplvet:hotpath
func (g *GroupCommitter) Append(j *Journal, version uint32, body []byte) error {
	req := &commitReq{j: j, version: version, body: body, done: make(chan error, 1)}
	// The read lock is held across the send: once Close has the write
	// lock no new request can be in flight, so the leader's final drain
	// cannot miss one.
	g.mu.RLock()
	if g.closed {
		g.mu.RUnlock()
		return ErrCommitterClosed
	}
	g.reqs <- req
	g.mu.RUnlock()
	return <-req.done
}

// Close flushes pending requests and stops the leader. Appends after
// Close fail with ErrCommitterClosed.
func (g *GroupCommitter) Close() error {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		g.wg.Wait()
		return nil
	}
	g.closed = true
	g.mu.Unlock()
	close(g.stop)
	g.wg.Wait()
	return nil
}

// run is the leader loop: block for a first request, linger up to the
// window collecting companions, commit the group.
func (g *GroupCommitter) run() {
	defer g.wg.Done()
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	var batch []*commitReq
	for {
		var first *commitReq
		select {
		case first = <-g.reqs:
		case <-g.stop:
			g.flush(g.drainPending())
			return
		}
		batch = append(batch[:0], first)
		timer.Reset(g.window)
	collect:
		for len(batch) < maxGroupBatch {
			select {
			case req := <-g.reqs:
				batch = append(batch, req)
			case <-timer.C:
				break collect
			case <-g.stop:
				break collect
			}
		}
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		g.flush(batch)
	}
}

// drainPending empties the queue without blocking (shutdown path; the
// closed flag guarantees no concurrent senders remain).
func (g *GroupCommitter) drainPending() []*commitReq {
	var batch []*commitReq
	for {
		select {
		case req := <-g.reqs:
			batch = append(batch, req)
		default:
			return batch
		}
	}
}

// flush commits one group: writes in arrival order, one fsync per
// distinct journal, acks last.
//
//tplvet:hotpath
func (g *GroupCommitter) flush(batch []*commitReq) {
	if len(batch) == 0 {
		return
	}
	// Writes, in order. The first write error poisons its journal for
	// the rest of the group; other journals are unaffected.
	poisoned := make(map[*Journal]error)
	// Journals with >= 1 successful write, dedup'd; a group touches at
	// most one journal per request, so len(batch) bounds it exactly.
	written := make([]*Journal, 0, len(batch))
	seen := make(map[*Journal]bool)
	for _, req := range batch {
		if err := poisoned[req.j]; err != nil {
			// The journal is already poisoned: this group is failing, so
			// the error construction below is not steady-state work.
			//tplvet:allow hotalloc runs only after an append error poisoned the journal; the group is already failing, not hot
			req.err = fmt.Errorf("persist: earlier append in commit group failed: %w", err)
			continue
		}
		if err := req.j.Append(req.version, req.body); err != nil {
			poisoned[req.j] = err
			req.err = err
			continue
		}
		if !seen[req.j] {
			seen[req.j] = true
			written = append(written, req.j)
		}
	}
	// One fsync per journal — even a later-poisoned one, whose earlier
	// intact records still need durability before their acks.
	synced := make(map[*Journal]error, len(written))
	for _, j := range written {
		synced[j] = j.Sync()
	}
	// Acks after the fsyncs: nothing is acknowledged before it is on
	// stable storage.
	for _, req := range batch {
		if req.err != nil {
			req.done <- req.err
			continue
		}
		req.done <- synced[req.j]
	}
}
