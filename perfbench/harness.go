package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// server is one tplserved process the benchmark started.
type server struct {
	cmd  *exec.Cmd
	base string
	done chan struct{} // closed once stderr is drained
	mu   sync.Mutex
	tail []string // last stderr lines, for error reports
}

// startServer execs tplserved and returns once it listens. The server
// logs its bound address; -addr 127.0.0.1:0 lets the kernel pick a free
// port, so runs never collide on one.
func startServer(bin string, args ...string) (*server, error) {
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	// The server dies with the benchmark even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	s := &server{cmd: cmd, done: make(chan struct{})}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting tplserved: %w", err)
	}
	ready := make(chan string, 1)
	go func() {
		defer close(s.done)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if _, addr, ok := strings.Cut(line, "tplserved: listening on "); ok {
				select {
				case ready <- addr:
				default:
				}
			}
			s.mu.Lock()
			s.tail = append(s.tail, line)
			if len(s.tail) > 20 {
				s.tail = s.tail[1:]
			}
			s.mu.Unlock()
		}
	}()
	select {
	case addr := <-ready:
		s.base = "http://" + addr
		return s, nil
	case <-s.done:
		s.kill()
		return nil, fmt.Errorf("tplserved exited before listening: %s", s.stderrTail())
	case <-time.After(2 * time.Minute):
		s.kill()
		return nil, errors.New("tplserved did not listen within 2 minutes")
	}
}

func (s *server) stderrTail() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return strings.Join(s.tail, " | ")
}

// kill SIGKILLs the server and waits until it has exited. It returns
// the process's CPU time over its whole life.
func (s *server) kill() (cpuSec float64) {
	_ = s.cmd.Process.Kill() // already exited is fine: Wait reaps it
	<-s.done
	_ = s.cmd.Wait() // a killed process reports "signal: killed"
	if ru, ok := s.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		cpuSec = time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
	}
	return cpuSec
}

// clockTicks is USER_HZ, the unit of utime/stime in /proc/<pid>/stat
// (100 on every Linux ABI Go supports).
const clockTicks = 100

// procCPU reads the server's utime+stime so far.
func (s *server) procCPU() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	i := bytes.LastIndexByte(raw, ')')
	f := strings.Fields(string(raw[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc stat: %v %v", err1, err2)
	}
	return (ut + st) / clockTicks, nil
}

// procRSS reads the server's resident set (VmRSS) in MB.
func (s *server) procRSS() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmRSS in /proc status")
}

// rssEvery is the resident-set sampling interval.
const rssEvery = 50 * time.Millisecond

// sampleRSS samples the server's resident set every rssEvery, appending
// to *into, until the returned stop function is called; stop waits for
// the sampler to exit.
func (s *server) sampleRSS(into *[]float64) (stop func()) {
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(rssEvery)
		defer tick.Stop()
		for {
			if mb, err := s.procRSS(); err == nil {
				*into = append(*into, mb)
			}
			select {
			case <-quit:
				return
			case <-tick.C:
			}
		}
	}()
	return func() {
		close(quit)
		<-done
	}
}

// conn is one HTTP/1.1 keep-alive connection: a client whose transport
// holds at most one connection, so the benchmark's connection count is
// exactly the number of conns it opens.
type conn struct {
	hc   *http.Client
	base string
	buf  bytes.Buffer
}

func newConn(base string) *conn {
	return &conn{base: base, hc: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}}
}

func (c *conn) close() { c.hc.CloseIdleConnections() }

// do sends one request and reads the whole response. It returns the
// status, the body (valid until the next call) and the time from send
// to the last response byte.
func (c *conn) do(req *http.Request) (int, []byte, time.Duration, error) {
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, time.Since(start), err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, c.buf.Bytes(), time.Since(start), err
}

func (c *conn) get(path string) (int, []byte, time.Duration, error) {
	req, err := http.NewRequest(http.MethodGet, c.base+path, nil)
	if err != nil {
		return 0, nil, 0, err
	}
	return c.do(req)
}

// getJSON GETs path and decodes a 200 response into v.
func (c *conn) getJSON(path string, v any) error {
	code, body, _, err := c.get(path)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", path, code, body)
	}
	return json.Unmarshal(body, v)
}

// createSession POSTs a session config.
func (c *conn) createSession(s *sessionSpec) error {
	req, err := http.NewRequest(http.MethodPost, c.base+"/v2/sessions", bytes.NewReader(s.create))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	code, body, _, err := c.do(req)
	if err != nil {
		return err
	}
	if code != http.StatusCreated {
		return fmt.Errorf("creating session %s: status %d: %s", s.name, code, body)
	}
	return nil
}

// sessionRun tracks what one session has been sent and acknowledged.
type sessionRun struct {
	spec                  *sessionSpec
	keys                  []string
	nextKey               int
	nextBody, nextHistory int
	acked                 int       // steps acknowledged
	eps                   []float64 // budgets of the acknowledged steps, in step order
}

// ackResponse is the Prefer: return=minimal batch acknowledgement.
type ackResponse struct {
	Count  int `json:"count"`
	FirstT int `json:"first_t"`
	LastT  int `json:"last_t"`
}

// sendBatch posts the session's next pre-encoded body under its next
// pre-generated key. It returns the ack latency; a refused or failed
// request returns an error and acknowledges nothing.
func (c *conn) sendBatch(sr *sessionRun, history bool) (time.Duration, error) {
	var b *batchBody
	if history {
		b = &sr.spec.history[sr.nextHistory%len(sr.spec.history)]
		sr.nextHistory++
	} else {
		b = &sr.spec.pool[sr.nextBody%len(sr.spec.pool)]
		sr.nextBody++
	}
	if sr.nextKey >= len(sr.keys) {
		return 0, fmt.Errorf("session %s: out of pre-generated keys", sr.spec.name)
	}
	key := sr.keys[sr.nextKey]
	sr.nextKey++
	req, err := http.NewRequest(http.MethodPost, c.base+"/v2/sessions/"+sr.spec.name+"/steps", bytes.NewReader(b.body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	req.Header.Set("Idempotency-Key", key)
	req.Header.Set("Prefer", "return=minimal")
	code, body, lat, err := c.do(req)
	if err != nil {
		return lat, err
	}
	if code != http.StatusOK {
		return lat, fmt.Errorf("session %s: status %d: %s", sr.spec.name, code, body)
	}
	var ack ackResponse
	if err := json.Unmarshal(body, &ack); err != nil {
		return lat, fmt.Errorf("session %s: decoding ack: %w", sr.spec.name, err)
	}
	if ack.Count != len(b.eps) || ack.FirstT != sr.acked+1 || ack.LastT != sr.acked+len(b.eps) {
		return lat, fmt.Errorf("session %s: ack %+v after %d acknowledged steps of a %d-step batch", sr.spec.name, ack, sr.acked, len(b.eps))
	}
	sr.acked += len(b.eps)
	sr.eps = append(sr.eps, b.eps...)
	return lat, nil
}

// tally collects one phase's request latencies and failures.
type tally struct {
	mu        sync.Mutex
	latMs     []float64
	attempted int
	failed    int
	errs      []string
}

func (t *tally) add(lat time.Duration, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err != nil {
		t.failed++
		// A failed request counts as beyond every percentile.
		t.latMs = append(t.latMs, math.Inf(1))
		if len(t.errs) < 5 {
			t.errs = append(t.errs, err.Error())
		}
		return
	}
	t.latMs = append(t.latMs, float64(lat.Nanoseconds())/1e6)
}

// writeBatches sends n batches to each session and returns the phase's
// wall time. Each connection is one closed-loop writer; session i is
// written over connection i mod len(conns), a writer with several
// sessions visiting them round-robin.
func writeBatches(ctx context.Context, conns []*conn, runs []*sessionRun, n int, history bool, t *tally) time.Duration {
	start := time.Now()
	var wg sync.WaitGroup
	for ci, c := range conns {
		var mine []*sessionRun
		for i := ci; i < len(runs); i += len(conns) {
			mine = append(mine, runs[i])
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < n && ctx.Err() == nil; j++ {
				for _, sr := range mine {
					lat, err := c.sendBatch(sr, history)
					t.add(lat, err)
				}
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}
