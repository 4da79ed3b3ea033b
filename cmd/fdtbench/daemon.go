package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemonSpec is one single-run job the daemon workloads submit.
type daemonSpec struct {
	Workload string   `json:"workload"`
	Cores    int      `json:"cores"`
	Threads  []int    `json:"threads,omitempty"`
	Policies []string `json:"policies,omitempty"`
}

// key is the spec's identity in the golden file: its JSON.
func (s daemonSpec) key() string {
	b, _ := json.Marshal(s) // plain struct of strings and ints
	return string(b)
}

// daemonWorkloads are the five Table-2 workloads whose runs take tens
// of milliseconds on an 8-core machine, so HTTP, queueing and store
// time stay a visible share of each request.
var daemonWorkloads = []string{"convert", "ep", "isort", "mtwister", "pagemine"}

const daemonCores = 8

// daemonSpecs is the fixed spec set: each daemon workload at static
// 1..8 threads and under SAT+BAT — 45 distinct runs.
func daemonSpecs() []daemonSpec {
	var out []daemonSpec
	for _, w := range daemonWorkloads {
		for t := 1; t <= daemonCores; t++ {
			out = append(out, daemonSpec{Workload: w, Cores: daemonCores, Threads: []int{t}})
		}
		out = append(out, daemonSpec{Workload: w, Cores: daemonCores, Policies: []string{"sat+bat"}})
	}
	return out
}

// daemonPlan shapes one daemon workload.
type daemonPlan struct {
	name string
	// warm restarts fdtd on a store a cold pass filled and draws
	// requests uniformly from specs; otherwise each pass starts fdtd
	// on an empty store and each client submits its share once.
	warm bool
	// requests is each client's request count per warm pass.
	requests int
	// cacheLimit bounds fdtd's in-memory run cache on warm passes, so
	// most requests read the disk store.
	cacheLimit int
	specs      []daemonSpec
}

func daemonCold() daemonPlan {
	return daemonPlan{name: "daemon-cold", specs: daemonSpecs()}
}

func daemonWarm() daemonPlan {
	return daemonPlan{name: "daemon-warm", warm: true, requests: 5000, cacheLimit: 16, specs: daemonSpecs()}
}

// clientSequences returns the spec indices each of the two clients
// submits in one pass. Cold: client c owns the specs with i%3 == c and
// both share i%3 == 2, so a quarter of requests meet a run the other
// client already started (single-flight dedup) while the median
// request still simulates; each client's order is seeded. Warm: each
// client draws requests uniformly from every spec.
func (p daemonPlan) clientSequences(seed, pass uint64) [2][]int {
	var seqs [2][]int
	for c := range seqs {
		rng := rand.New(rand.NewPCG(seed, pass*2+uint64(c)))
		if p.warm {
			for i := 0; i < p.requests; i++ {
				seqs[c] = append(seqs[c], rng.IntN(len(p.specs)))
			}
			continue
		}
		for i := range p.specs {
			if i%3 == c || i%3 == 2 {
				seqs[c] = append(seqs[c], i)
			}
		}
		rng.Shuffle(len(seqs[c]), func(a, b int) { seqs[c][a], seqs[c][b] = seqs[c][b], seqs[c][a] })
	}
	return seqs
}

// daemonProc is a running fdtd.
type daemonProc struct {
	cmd     *exec.Cmd
	base    string
	started time.Time
	// setupS is exec to the first 200 from /v1/healthz; rss0MB the
	// resident set right after.
	setupS  float64
	rss0MB  float64
	drained chan struct{}
}

// startDaemon launches fdtd on storeDir with two job workers and a
// two-wide runner pool, and waits until it answers /v1/healthz.
func startDaemon(ctx context.Context, bin, storeDir string, extra ...string) (*daemonProc, error) {
	args := append([]string{"-addr", "127.0.0.1:0", "-store", storeDir, "-workers", "2", "-parallel", "2"}, extra...)
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	d := &daemonProc{cmd: cmd, drained: make(chan struct{}), started: time.Now()}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start fdtd: %w", err)
	}
	addr := make(chan string, 1)
	go func() {
		defer close(d.drained)
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "fdtd: listening on "); ok {
				select {
				case addr <- a:
				default:
				}
			}
		}
		io.Copy(io.Discard, out)
	}()
	fail := func(err error) (*daemonProc, error) {
		d.cmd.Process.Kill()
		<-d.drained
		d.cmd.Wait()
		return nil, err
	}
	select {
	case a := <-addr:
		d.base = "http://" + a
	case <-d.drained:
		return fail(errors.New("fdtd exited before listening"))
	case <-time.After(30 * time.Second):
		return fail(errors.New("fdtd did not listen within 30s"))
	case <-ctx.Done():
		return fail(ctx.Err())
	}
	for {
		resp, err := http.Get(d.base + "/v1/healthz")
		if err == nil {
			drainClose(resp.Body)
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Since(d.started) > 30*time.Second || ctx.Err() != nil {
			return fail(fmt.Errorf("fdtd not healthy: %v", err))
		}
		time.Sleep(time.Millisecond)
	}
	d.setupS = time.Since(d.started).Seconds()
	d.rss0MB = vmRSSMB(cmd.Process.Pid)
	return d, nil
}

// stop drains fdtd with SIGTERM (killing it after 30s) and waits for
// it to exit. It returns the process's peak resident set and CPU time.
func (d *daemonProc) stop() (peakMB, cpuS float64, err error) {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.drained:
	case <-time.After(30 * time.Second):
		d.cmd.Process.Kill()
		<-d.drained
	}
	err = d.cmd.Wait()
	if ru, ok := d.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		peakMB = float64(ru.Maxrss) / 1024
		cpuS = tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
	}
	if err != nil {
		err = fmt.Errorf("fdtd: %w", err)
	}
	return peakMB, cpuS, err
}

// vmRSSMB reads a process's resident set from /proc/<pid>/status in
// MB; 0 when unavailable.
func vmRSSMB(pid int) float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// daemonStats is the part of /v1/stats the benchmark reads.
type daemonStats struct {
	CacheHits     uint64 `json:"cache_hits"`
	CacheComputes uint64 `json:"cache_computes"`
	Store         *struct {
		Hits uint64 `json:"hits"`
		Puts uint64 `json:"puts"`
	} `json:"store"`
	StoreBytes int64 `json:"store_bytes"`
}

func fetchStats(ctx context.Context, hc *http.Client, base string) (daemonStats, error) {
	var st daemonStats
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/stats", nil)
	if err != nil {
		return st, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return st, fmt.Errorf("stats: %w", err)
	}
	defer drainClose(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("stats: HTTP %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, fmt.Errorf("stats: %w", err)
	}
	if st.Store == nil {
		return st, errors.New("stats: fdtd reports no store")
	}
	return st, nil
}

// jobTiming marks one request's progress on the client's clock.
type jobTiming struct {
	start, accepted, running, done time.Time
}

// client is one closed-loop client: one connection, no think time.
type client struct {
	base string
	name string
	hc   *http.Client
}

func newClient(base, name string) *client {
	return &client{base: base, name: name, hc: &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
	}}
}

// job submits one spec, follows its SSE stream to the terminal event,
// then fetches the result and returns its SHA-256 (of the compacted
// JSON, so response indentation does not matter).
func (c *client) job(ctx context.Context, body []byte) (jobTiming, string, error) {
	var t jobTiming
	t.start = time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return t, "", err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return t, "", fmt.Errorf("submit: %w", err)
	}
	var v struct {
		ID string `json:"id"`
	}
	err = json.NewDecoder(resp.Body).Decode(&v)
	drainClose(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		return t, "", fmt.Errorf("submit: HTTP %d", resp.StatusCode)
	}
	if err != nil {
		return t, "", fmt.Errorf("submit: %w", err)
	}
	t.accepted = time.Now()

	resp, err = c.get(ctx, "/v1/jobs/"+v.ID+"/stream")
	if err != nil {
		return t, "", err
	}
	term, msg, err := readSSE(resp.Body, func(typ string) {
		if typ == "running" {
			t.running = time.Now()
		}
	})
	t.done = time.Now()
	drainClose(resp.Body)
	if err != nil {
		return t, "", fmt.Errorf("job %s: %w", v.ID, err)
	}
	if term != "done" {
		return t, "", fmt.Errorf("job %s failed: %s", v.ID, msg)
	}
	if t.running.IsZero() {
		t.running = t.done
	}

	resp, err = c.get(ctx, "/v1/jobs/"+v.ID)
	if err != nil {
		return t, "", err
	}
	var view struct {
		Result json.RawMessage `json:"result"`
	}
	err = json.NewDecoder(resp.Body).Decode(&view)
	drainClose(resp.Body)
	if err != nil {
		return t, "", fmt.Errorf("job %s: result: %w", v.ID, err)
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, view.Result); err != nil {
		return t, "", fmt.Errorf("job %s: result: %w", v.ID, err)
	}
	sum := sha256.Sum256(compact.Bytes())
	return t, hex.EncodeToString(sum[:]), nil
}

func (c *client) get(ctx context.Context, path string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("GET %s: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		drainClose(resp.Body)
		return nil, fmt.Errorf("GET %s: HTTP %d", path, resp.StatusCode)
	}
	return resp, nil
}

// readSSE reads a job's event stream until its terminal event ("done"
// or "error") and returns that event's type; for "error" also the
// job's error message. onEvent sees every event type on arrival. A
// stream that ends before a terminal event is an error.
func readSSE(r io.Reader, onEvent func(typ string)) (terminal, errMsg string, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	var typ, data string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event:"):
			typ = strings.TrimSpace(strings.TrimPrefix(line, "event:"))
		case strings.HasPrefix(line, "data:"):
			data = strings.TrimSpace(strings.TrimPrefix(line, "data:"))
		case line == "" && typ != "":
			onEvent(typ)
			switch typ {
			case "done":
				return typ, "", nil
			case "error":
				var ev struct {
					Err string `json:"error"`
				}
				json.Unmarshal([]byte(data), &ev) // the message is best effort
				return typ, ev.Err, nil
			}
			typ, data = "", ""
		}
	}
	if err := sc.Err(); err != nil {
		return "", "", err
	}
	return "", "", errors.New("stream ended before a done or error event")
}

func drainClose(rc io.ReadCloser) {
	io.Copy(io.Discard, rc)
	rc.Close()
}

// daemonPassResult is what one daemon pass measured.
type daemonPassResult struct {
	wallS     float64
	latMs     []float64
	submitMs  []float64
	queueMs   []float64
	execMs    []float64
	attempted int
	failures  []string
	// sums maps each submitted spec's key to its result's SHA-256.
	sums          map[string]string
	before, after daemonStats
	spans         []span
	// peakMB, cpuS and lifeS describe the fdtd process (withDaemon).
	peakMB, cpuS, lifeS float64
}

// runDaemonPass drives the two clients of one pass against a running
// fdtd and checks every result's hash against gold (nil skips it).
// record keeps per-request spans.
func runDaemonPass(ctx context.Context, base string, p daemonPlan, seqs [2][]int, gold map[string]string, record bool) (daemonPassResult, error) {
	res := daemonPassResult{sums: map[string]string{}}
	statsClient := &http.Client{}
	defer statsClient.CloseIdleConnections()
	before, err := fetchStats(ctx, statsClient, base)
	if err != nil {
		return res, err
	}
	var (
		mu sync.Mutex
		wg sync.WaitGroup
	)
	keys := make([]string, len(p.specs))
	for i, s := range p.specs {
		keys[i] = s.key()
	}
	start := time.Now()
	for ci, seq := range seqs {
		c := newClient(base, fmt.Sprintf("bench-%d", ci))
		bodies := make([][]byte, len(p.specs))
		for i, s := range p.specs {
			bodies[i], _ = json.Marshal(struct {
				Client string `json:"client"`
				daemonSpec
			}{c.name, s})
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer c.hc.CloseIdleConnections()
			for _, si := range seq {
				if ctx.Err() != nil {
					return
				}
				t, sum, err := c.job(ctx, bodies[si])
				key := keys[si]
				if err == nil && gold != nil && gold[key] != sum {
					err = fmt.Errorf("%s: result sha256 %s, golden %q", key, sum, gold[key])
				}
				mu.Lock()
				if prev, ok := res.sums[key]; err == nil && ok && prev != sum {
					err = fmt.Errorf("%s: result sha256 %s differs from an earlier response's %s", key, sum, prev)
				}
				if err == nil {
					res.sums[key] = sum
				}
				res.attempted++
				if err != nil {
					res.failures = append(res.failures, err.Error())
				} else {
					res.latMs = append(res.latMs, ms(t.done.Sub(t.start)))
					res.submitMs = append(res.submitMs, ms(t.accepted.Sub(t.start)))
					res.queueMs = append(res.queueMs, ms(t.running.Sub(t.accepted)))
					res.execMs = append(res.execMs, ms(t.done.Sub(t.running)))
					if record {
						res.spans = append(res.spans,
							span{Name: "job " + key, Track: ci, Start: t.start.UnixNano(), End: t.done.UnixNano()},
							span{Name: "submit", Track: ci, Start: t.start.UnixNano(), End: t.accepted.UnixNano()},
							span{Name: "queue", Track: ci, Start: t.accepted.UnixNano(), End: t.running.UnixNano()},
							span{Name: "exec", Track: ci, Start: t.running.UnixNano(), End: t.done.UnixNano()})
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	res.wallS = time.Since(start).Seconds()
	if err := ctx.Err(); err != nil {
		return res, err
	}
	res.before = before
	res.after, err = fetchStats(ctx, statsClient, base)
	return res, err
}
