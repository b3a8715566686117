package main

// Measurement from outside the program: process CPU, peak RSS and I/O
// from /proc, the daemon's Prometheus exposition, child-process
// lifetime, and the bench-side span recorder.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// clockTick is the kernel's USER_HZ, the unit of /proc/<pid>/stat CPU
// times; it is 100 on every Linux platform Go supports.
const clockTick = 100

// procCPU returns the user+system CPU time pid has used so far, all
// threads included.
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// fields 14 and 15 of the whole line.
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(string(data[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	return time.Duration(ut+st) * time.Second / clockTick, nil
}

// selfCPU returns this process's user+system CPU time at microsecond
// resolution (children excluded).
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns VmHWM, the peak resident set of pid ("self" for
// this process), in MiB.
func peakRSSMB(pid string) (float64, error) {
	data, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			if f := strings.Fields(rest); len(f) > 0 {
				kb, err := strconv.ParseFloat(f[0], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// procWriteBytes returns the bytes pid caused to be written to storage.
func procWriteBytes(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/io", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "write_bytes:"); ok {
			return strconv.ParseFloat(strings.TrimSpace(rest), 64)
		}
	}
	return 0, fmt.Errorf("no write_bytes in /proc/%d/io", pid)
}

// promSnapshot is one scrape of a Prometheus text exposition: plain
// samples by name, and histogram buckets as cumulative counts by upper
// bound (seconds), in exposition order.
type promSnapshot struct {
	samples map[string]float64
	buckets map[string][]promBucket
}

type promBucket struct {
	le  float64
	cum float64
}

func parseProm(r io.Reader) (*promSnapshot, error) {
	s := &promSnapshot{samples: map[string]float64{}, buckets: map[string][]promBucket{}}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		key := line[:sp]
		if name, rest, ok := strings.Cut(key, `_bucket{le="`); ok {
			le, err := strconv.ParseFloat(strings.TrimSuffix(rest, `"}`), 64)
			if err != nil {
				return nil, fmt.Errorf("metrics line %q: %w", line, err)
			}
			s.buckets[name] = append(s.buckets[name], promBucket{le, v})
			continue
		}
		s.samples[key] = v
	}
	return s, sc.Err()
}

func scrapeProm(hc *http.Client, url string) (*promSnapshot, error) {
	resp, err := hc.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return parseProm(resp.Body)
}

// delta returns after−before for a plain sample.
func (s *promSnapshot) delta(before *promSnapshot, name string) float64 {
	return s.samples[name] - before.samples[name]
}

// histDelta returns the count and sum (seconds) a histogram gained
// between two scrapes.
func (s *promSnapshot) histDelta(before *promSnapshot, name string) (count, sum float64) {
	return s.delta(before, name+"_count"), s.delta(before, name+"_sum")
}

// histMaxBucket returns the upper bound (seconds) of the highest bucket
// that gained observations between two scrapes; 0 when none did. The
// exposition stops listing finite buckets once the cumulative count
// reaches the total, so an absent bucket counts as holding the total.
func (s *promSnapshot) histMaxBucket(before *promSnapshot, name string) float64 {
	cumAt := func(bs []promBucket, total float64, le float64) float64 {
		for _, b := range bs {
			if b.le == le {
				return b.cum
			}
		}
		return total
	}
	totalB := before.samples[name+"_count"]
	var prevA, prevB, top float64
	for _, b := range s.buckets[name] {
		cb := cumAt(before.buckets[name], totalB, b.le)
		if (b.cum-prevA)-(cb-prevB) > 0 {
			top = b.le
		}
		prevA, prevB = b.cum, cb
	}
	return top
}

// child is a process the benchmark started; stop ends it and waits.
type child struct {
	cmd  *exec.Cmd
	done chan struct{} // closed once the process has been waited for
	out  *bytes.Buffer // everything after the ready line
	mu   sync.Mutex
}

// startChild starts cmd with its stdout piped and waits until a line
// containing ready appears, returning that line and the time it took.
// The child dies with the benchmark (Pdeathsig).
func startChild(cmd *exec.Cmd, ready string, timeout time.Duration) (*child, string, time.Duration, error) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, "", 0, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, "", 0, err
	}
	c := &child{cmd: cmd, done: make(chan struct{}), out: &bytes.Buffer{}}
	lines := make(chan string, 1) // the ready line, sent once
	go func() {
		defer close(c.done)
		sc := bufio.NewScanner(stdout)
		found := false
		for sc.Scan() {
			if !found && strings.Contains(sc.Text(), ready) {
				found = true
				lines <- sc.Text()
				continue
			}
			c.mu.Lock()
			c.out.WriteString(sc.Text() + "\n")
			c.mu.Unlock()
		}
		close(lines)
		cmd.Wait()
	}()
	select {
	case line, ok := <-lines:
		if !ok {
			<-c.done
			return nil, "", 0, fmt.Errorf("%s exited before printing %q: %v", filepath.Base(cmd.Path), ready, cmd.ProcessState)
		}
		return c, line, time.Since(t0), nil
	case <-time.After(timeout):
		c.kill()
		return nil, "", 0, fmt.Errorf("%s did not print %q within %v", filepath.Base(cmd.Path), ready, timeout)
	}
}

func (c *child) pid() int { return c.cmd.Process.Pid }

// kill ends the process at once and waits for it.
func (c *child) kill() {
	_ = c.cmd.Process.Kill() // already exited is fine
	<-c.done
}

// stop asks the process to exit (SIGTERM), waiting up to grace before
// killing it; it reports whether the process exited on its own with
// status 0.
func (c *child) stop(grace time.Duration) bool {
	_ = c.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-c.done:
		return c.cmd.ProcessState != nil && c.cmd.ProcessState.Success()
	case <-time.After(grace):
		c.kill()
		return false
	}
}

// output returns what the child printed after its ready line.
func (c *child) output() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.out.String()
}

// spans is the bench-side trace: spans stay in memory and are written
// as JSONL when the run ends.
type spans struct {
	mu   sync.Mutex
	t0   time.Time
	ids  int
	recs []spanRec
}

type spanRec struct {
	Name    string         `json:"name"`
	ID      int            `json:"id"`
	Parent  int            `json:"parent,omitempty"`
	StartUS float64        `json:"start_us"`
	EndUS   float64        `json:"end_us"`
	Fields  map[string]any `json:"fields,omitempty"`
}

func newSpans() *spans { return &spans{t0: time.Now()} }

// id allocates a span id, so children can name a parent that has not
// ended yet. A nil recorder (tracing off) records nothing.
func (s *spans) id() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ids++
	return s.ids
}

// add records one finished span under an id from s.id (0 allocates one).
func (s *spans) add(id int, name string, parent int, start, end time.Time, fields map[string]any) {
	if s == nil {
		return
	}
	if id == 0 {
		id = s.id()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.recs = append(s.recs, spanRec{
		Name: name, ID: id, Parent: parent,
		StartUS: float64(start.Sub(s.t0).Nanoseconds()) / 1e3,
		EndUS:   float64(end.Sub(s.t0).Nanoseconds()) / 1e3,
		Fields:  fields,
	})
}

func (s *spans) write(path string) error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for i := range s.recs {
		if err := enc.Encode(&s.recs[i]); err != nil {
			return err
		}
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// closedLoop runs ops [from, to) on clients goroutines, each taking the
// next op index as soon as its previous op returns.
func closedLoop(from, to, clients int, op func(i int)) {
	var next atomic.Int64
	next.Store(int64(from))
	var wg sync.WaitGroup
	for range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= to {
					return
				}
				op(i)
			}
		}()
	}
	wg.Wait()
}

// blockCount is how many equal blocks a measured window is cut into for
// ops_per_s and cpu_ms_per_op: each is the median over the blocks, so a
// burst of contention from outside the benchmark moves one block, not
// the result.
const blockCount = 8

// blocks marks the wall clock and CPU time at every k-th completed op.
type blocks struct {
	k     int
	cpu   func() time.Duration
	mu    sync.Mutex
	done  int
	marks []blockMark
}

type blockMark struct {
	t   time.Time
	cpu time.Duration
}

// newBlocks starts the first block now; n ops will be measured.
func newBlocks(n int, cpu func() time.Duration) *blocks {
	b := &blocks{k: max(n/blockCount, 1), cpu: cpu}
	b.marks = append(b.marks, blockMark{time.Now(), cpu()})
	return b
}

// opDone counts one completed op, closing a block at every k-th.
func (b *blocks) opDone() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.done++; b.done%b.k == 0 {
		b.marks = append(b.marks, blockMark{time.Now(), b.cpu()})
	}
}

// opsPerS is the median over complete blocks of k ops per block time.
func (b *blocks) opsPerS() float64 {
	var xs []float64
	for i := 1; i < len(b.marks); i++ {
		xs = append(xs, float64(b.k)/b.marks[i].t.Sub(b.marks[i-1].t).Seconds())
	}
	return median(xs)
}

// cpuMsPerOp is the median over complete blocks of CPU ms per op.
func (b *blocks) cpuMsPerOp() float64 {
	var xs []float64
	for i := 1; i < len(b.marks); i++ {
		xs = append(xs, ms(b.marks[i].cpu-b.marks[i-1].cpu)/float64(b.k))
	}
	return median(xs)
}

// n is the number of complete blocks.
func (b *blocks) n() int { return len(b.marks) - 1 }
