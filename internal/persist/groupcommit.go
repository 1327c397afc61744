package persist

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// Group commit. A journal append is durable only after an fsync. The
// GroupCommitter coalesces appends across all sessions of a process
// into groups, self-clocked the way MySQL's binlog group commit is: a
// leader goroutine blocks until a first request arrives, takes whatever
// else is already queued without waiting, writes the group in arrival
// order, fsyncs the group's distinct journals concurrently, and only
// then acknowledges. Requests that arrive while a group is flushing
// queue up and form the next group, so groups grow with load on their
// own and an idle committer does nothing but block on its channel.
//
// A window > 0 makes the leader linger up to that long after the first
// request for companions before it flushes (PostgreSQL's commit_delay;
// both default to no linger). It buys nothing for sessions, which have
// at most one append outstanding each, but a fixed linger makes the
// commit window the per-request cost, which benchmarks and
// crash-mid-window tests rely on.
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

// GroupCommitter coalesces journal appends into commit groups.
type GroupCommitter struct {
	window time.Duration
	reqs   chan *commitReq
	stop   chan struct{}
	wg     sync.WaitGroup

	mu     sync.RWMutex
	closed bool
}

// NewGroupCommitter starts a committer. A window > 0 bounds how long
// a group lingers for companions after its first request; 0 flushes
// whatever is queued at once.
func NewGroupCommitter(window time.Duration) *GroupCommitter {
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

// run is the leader loop: block for a first request, gather its
// companions (lingering only if a window is set), commit the group.
func (g *GroupCommitter) run() {
	defer g.wg.Done()
	var batch []*commitReq
	for {
		select {
		case first := <-g.reqs:
			batch = append(batch[:0], first)
		case <-g.stop:
			// The closed flag guarantees no concurrent senders remain.
			g.flush(g.takeQueued(batch[:0]))
			return
		}
		if g.window > 0 {
			batch = g.linger(batch)
		}
		g.flush(g.takeQueued(batch))
	}
}

// takeQueued appends the requests already queued, without waiting,
// until the group is full.
func (g *GroupCommitter) takeQueued(batch []*commitReq) []*commitReq {
	for len(batch) < maxGroupBatch {
		select {
		case req := <-g.reqs:
			batch = append(batch, req)
		default:
			return batch
		}
	}
	return batch
}

// linger collects companions until the window closes, the group fills
// or the committer closes.
func (g *GroupCommitter) linger(batch []*commitReq) []*commitReq {
	timer := time.NewTimer(g.window)
	defer timer.Stop()
	for len(batch) < maxGroupBatch {
		select {
		case req := <-g.reqs:
			batch = append(batch, req)
		case <-timer.C:
			return batch
		case <-g.stop:
			return batch
		}
	}
	return batch
}

// flush commits one group: writes in arrival order, one fsync per
// distinct journal with all of them in flight at once, acks last.
//
//tplvet:hotpath
func (g *GroupCommitter) flush(batch []*commitReq) {
	if len(batch) == 0 {
		return
	}
	// Writes, in order. The first write error poisons its journal for
	// the rest of the group; other journals are unaffected.
	poisoned := make(map[*Journal]error)
	// Journals with >= 1 successful write, dedup'd, and each one's index
	// in written; a group touches at most one journal per request, so
	// len(batch) bounds it exactly.
	written := make([]*Journal, 0, len(batch))
	slot := make(map[*Journal]int, len(batch))
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
		if _, ok := slot[req.j]; !ok {
			slot[req.j] = len(written)
			written = append(written, req.j)
		}
	}
	// One fsync per journal — even a later-poisoned one, whose earlier
	// intact records still need durability before their acks. Distinct
	// files sync independently, so the group waits for its slowest
	// fsync rather than for their sum: the leader syncs the first
	// journal itself and one goroutine each syncs the rest.
	synced := make([]error, len(written))
	var wg sync.WaitGroup
	for i := 1; i < len(written); i++ {
		wg.Add(1)
		go syncJournal(written[i], &synced[i], &wg)
	}
	if len(written) > 0 {
		synced[0] = written[0].Sync()
	}
	wg.Wait()
	// Acks after the fsyncs: nothing is acknowledged before it is on
	// stable storage.
	for _, req := range batch {
		if req.err != nil {
			req.done <- req.err
			continue
		}
		req.done <- synced[slot[req.j]]
	}
}

// syncJournal fsyncs j into *err and marks wg done.
func syncJournal(j *Journal, err *error, wg *sync.WaitGroup) {
	defer wg.Done()
	*err = j.Sync()
}
