package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// span is one timed call across a boundary the rig can see: name,
// start, end, the span that caused it and the operation (session id
// or request number) it belongs to. Times are nanoseconds since the
// tracer was made.
type span struct {
	ID     uint64 `json:"id"`
	Name   string `json:"name"`
	Parent uint64 `json:"parent"`
	Op     uint64 `json:"op"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory and writes them out once, when the run
// ends. A nil tracer records nothing, so untraced runs pay one branch.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span now and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, parent, op uint64) uint64 {
	return t.beginAt(name, parent, op, time.Now())
}

// beginAt opens a span whose start the caller has already taken.
func (t *tracer) beginAt(name string, parent, op uint64, at time.Time) uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := uint64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Name: name, Parent: parent, Op: op, Start: int64(at.Sub(t.t0))})
	return id
}

func (t *tracer) end(id uint64) { t.endAt(id, time.Now()) }

func (t *tracer) endAt(id uint64, at time.Time) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].End = int64(at.Sub(t.t0))
	t.mu.Unlock()
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close() // error paths; the success path checks Close below
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// cpuSeconds is this process's user+system CPU time so far; maxRSSMiB
// its peak resident set (Linux reports KiB).
func rusage() (cpuSeconds, maxRSSMiB float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime), float64(ru.Maxrss) / 1024
}

// scrape fetches one node's /metrics and adds every sample into sum,
// keyed by series name with labels (values are summed over nodes).
func scrape(addr string, sum map[string]float64) error {
	client := http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get("http://" + addr + "/metrics")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("scrape %s: %s", addr, resp.Status)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		sum[line[:i]] += v
	}
	return nil
}

// scrapeAll sums /metrics over every node of the cluster.
func (c *cluster) scrapeAll() (map[string]float64, error) {
	sum := make(map[string]float64)
	for _, srv := range c.nodes {
		if err := scrape(srv.MetricsAddr(), sum); err != nil {
			return nil, err
		}
	}
	return sum, nil
}

// dirBytes is the total size of the regular files under root.
func dirBytes(root string) int64 {
	var total int64
	filepath.Walk(root, func(_ string, info os.FileInfo, err error) error { //nolint:errcheck // a file vanishing mid-walk is just not counted
		if err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil
	})
	return total
}

// hostJiffies reads the kernel's whole-machine CPU accounting: the
// time the virtual processors were stolen by the host, and the total.
// In a guest the first is how much of the box other tenants took.
func hostJiffies() (steal, total float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return 0, 0
		}
		if i < 8 { // user nice system idle iowait irq softirq steal; guest time is already in user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}
