package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"sync"
	"syscall"
	"time"

	"github.com/tcdnet/tcd/internal/exp"
	"github.com/tcdnet/tcd/internal/obs"
	"github.com/tcdnet/tcd/internal/serve"
)

// daemonProcs is the GOMAXPROCS of the daemon child: one core for its
// single simulation worker and one for the HTTP handlers serving warm
// hits meanwhile.
const daemonProcs = 1

// pauseEvery is how often a closed loop pauses for calibration.
const pauseEvery = 200 * time.Millisecond

// loadClients is the number of closed-loop clients, each holding one
// connection.
const loadClients = 2

// jobSpec is one submission body and what the client expects back.
type jobSpec struct {
	body []byte
	// warm specs index the primed pool; cold ones are -1.
	warm int
}

// specStream generates a client's submissions: half warm, drawn from
// the primed pool, half cold, each a deadlock-unit spec with a seed no
// other submission of the run uses.
type specStream struct {
	rnd      *rand.Rand
	coldBase uint64
	next     uint64
	pool     int
}

func newSpecStream(seed int64, client, pool int) *specStream {
	r := rand.New(rand.NewSource(seed*1000 + int64(client)))
	return &specStream{rnd: r, coldBase: uint64(client+1) << 32, pool: pool}
}

func (s *specStream) nextSpec() jobSpec {
	if s.rnd.Intn(2) == 0 {
		return jobSpec{warm: s.rnd.Intn(s.pool)}
	}
	fabric := "cee"
	if s.rnd.Intn(2) == 1 {
		fabric = "ib"
	}
	s.next++
	return jobSpec{
		warm: -1,
		body: []byte(fmt.Sprintf(`{"exp":"deadlock-unit","fabric":%q,"seed":%d}`, fabric, s.coldBase+s.next)),
	}
}

// warmPool returns the fig3 specs primed into the cache during set-up.
func warmPool(seed int64, n int) [][]byte {
	pool := make([][]byte, n)
	for i := range pool {
		pool[i] = []byte(fmt.Sprintf(`{"exp":"fig3","fabric":"cee","seed":%d}`, seed*100+int64(i)+1))
	}
	return pool
}

// newHTTPClient allows at most one connection per closed-loop client.
func newHTTPClient() *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     loadClients,
			MaxIdleConnsPerHost: loadClients,
			DisableCompression:  true,
		},
	}
}

// submit posts a spec with ?wait=1 and reads the reply into buf.
func submit(hc *http.Client, base string, body []byte, buf *bytes.Buffer) (hash string, err error) {
	resp, err := hc.Post(base+"/v1/jobs?wait=1", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("status %d: %.200s", resp.StatusCode, buf.Bytes())
	}
	return resp.Header.Get("X-Spec-Hash"), nil
}

// primed holds the warm pool's result bytes and spec hashes.
type primed struct {
	specs  [][]byte
	bodies [][]byte
	hashes []string
}

// prime submits every warm spec once, so that later submissions hit the
// cache.
func prime(hc *http.Client, base string, specs [][]byte, between func() error) (*primed, error) {
	p := &primed{specs: specs}
	var buf bytes.Buffer
	for _, s := range specs {
		h, err := submit(hc, base, s, &buf)
		if err == nil && between != nil {
			err = between()
		}
		if err != nil {
			return nil, fmt.Errorf("priming: %w", err)
		}
		p.bodies = append(p.bodies, bytes.Clone(buf.Bytes()))
		p.hashes = append(p.hashes, h)
	}
	return p, nil
}

// coldSample is a cold reply kept for the byte-identity check.
type coldSample struct {
	spec, body []byte
	hash       string
}

// loadResult is what the closed-loop clients measured.
type loadResult struct {
	warmMs, coldMs []float64
	attempted      int
	fails          failures
	wall           time.Duration
	samples        []coldSample
	// submitted holds the bodies the clients sent, for the per-layer
	// parse and hash timings.
	submitted [][]byte
}

// closedLoop runs loadClients clients against base for d. Each sends
// its next spec only once the previous reply has arrived and been
// checked: warm replies byte-for-byte against the primed body, cold ones
// as well-formed results of their fabric, of which every sampleEvery-th
// is kept for the in-process byte-identity check. If pause is not nil,
// closedLoop calls it every pauseEvery once the clients' requests in
// flight have completed, and holds their next ones until it returns;
// the time it takes counts in d but not in the window's wall time.
func closedLoop(hc *http.Client, base string, p *primed, seed int64, d time.Duration, sampleEvery int, keepSubmitted bool, pause func()) *loadResult {
	type clientOut struct {
		warmMs, coldMs []float64
		attempted      int
		fails          failures
		samples        []coldSample
		submitted      [][]byte
	}
	outs := make([]clientOut, loadClients)
	var wg sync.WaitGroup
	// Clients hold gate for reading while a request is in flight.
	var gate sync.RWMutex
	start := time.Now()
	deadline := start.Add(d)
	for c := 0; c < loadClients; c++ {
		wg.Add(1)
		// The clients' CPU time is the benchmark's, not the daemon's.
		go asBench(func() {
			defer wg.Done()
			co := &outs[c]
			ss := newSpecStream(seed, c, len(p.specs))
			var buf bytes.Buffer
			for time.Now().Before(deadline) {
				js := ss.nextSpec()
				body := js.body
				if js.warm >= 0 {
					body = p.specs[js.warm]
				}
				co.attempted++
				gate.RLock()
				t0 := time.Now()
				hash, err := submit(hc, base, body, &buf)
				ms := float64(time.Since(t0)) / 1e6
				gate.RUnlock()
				if keepSubmitted {
					co.submitted = append(co.submitted, body)
				}
				if err == nil {
					err = checkReply(js, p, hash, buf.Bytes())
				}
				if err != nil {
					co.fails.add(err)
					continue
				}
				if js.warm >= 0 {
					co.warmMs = append(co.warmMs, ms)
					continue
				}
				co.coldMs = append(co.coldMs, ms)
				if sampleEvery > 0 && len(co.coldMs)%sampleEvery == 0 {
					co.samples = append(co.samples, coldSample{body, bytes.Clone(buf.Bytes()), hash})
				}
			}
		})
	}
	var paused time.Duration
	for pause != nil && time.Until(deadline) > pauseEvery {
		time.Sleep(pauseEvery)
		gate.Lock()
		t0 := time.Now()
		pause()
		paused += time.Since(t0)
		gate.Unlock()
	}
	wg.Wait()
	lr := &loadResult{wall: time.Since(start) - paused}
	for _, co := range outs {
		lr.warmMs = append(lr.warmMs, co.warmMs...)
		lr.coldMs = append(lr.coldMs, co.coldMs...)
		lr.attempted += co.attempted
		lr.fails.merge(co.fails)
		lr.samples = append(lr.samples, co.samples...)
		lr.submitted = append(lr.submitted, co.submitted...)
	}
	return lr
}

// checkReply checks a reply without re-running its simulation.
func checkReply(js jobSpec, p *primed, hash string, body []byte) error {
	if js.warm >= 0 {
		if hash != p.hashes[js.warm] || !bytes.Equal(body, p.bodies[js.warm]) {
			return fmt.Errorf("warm reply for %s differs from the primed result", p.specs[js.warm])
		}
		return nil
	}
	var res struct {
		Name string `json:"name"`
	}
	if err := json.Unmarshal(body, &res); err != nil || len(hash) != 64 ||
		(res.Name != "deadlock-unit-cee" && res.Name != "deadlock-unit-ib") {
		return fmt.Errorf("corrupted cold reply for %s", js.body)
	}
	return nil
}

// verifyInProcess checks that the daemon's bytes and spec hash for each
// spec equal what serve.CatalogExec and JobSpec.Hash give in this
// process.
func verifyInProcess(specs, bodies [][]byte, hashes []string) error {
	for i, s := range specs {
		spec, err := serve.ParseJobSpec(s)
		if err != nil {
			return err
		}
		want, err := serve.CatalogExec(context.Background(), spec, nil)
		if err != nil {
			return err
		}
		if !bytes.Equal(bodies[i], want) || hashes[i] != spec.Hash() {
			return fmt.Errorf("daemon result for %s differs from in-process serve.CatalogExec", s)
		}
	}
	return nil
}

func (lr *loadResult) verifySamples() error {
	specs := make([][]byte, len(lr.samples))
	bodies := make([][]byte, len(lr.samples))
	hashes := make([]string, len(lr.samples))
	for i, s := range lr.samples {
		specs[i], bodies[i], hashes[i] = s.spec, s.body, s.hash
	}
	return verifyInProcess(specs, bodies, hashes)
}

// daemonProc is a tcdsimd child process.
type daemonProc struct {
	cmd    *exec.Cmd
	base   string
	exited chan struct{}
	err    error // Wait's result, set before exited closes
}

// freeAddr returns a loopback address no listener holds right now.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// startDaemon starts tcdsimd with one worker and waits until /healthz
// answers 200.
func startDaemon(bin string, hc *http.Client) (*daemonProc, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "-addr", addr, "-workers", "1")
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(daemonProcs))
	cmd.Stderr = io.Discard
	// The child dies with the benchmark even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	d := &daemonProc{cmd: cmd, base: "http://" + addr, exited: make(chan struct{})}
	go func() {
		d.err = cmd.Wait()
		close(d.exited)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := hc.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck // drained only to reuse the connection
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		select {
		case <-d.exited:
			return nil, fmt.Errorf("tcdsimd exited before becoming healthy: %v", d.err)
		case <-time.After(time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, errors.New("tcdsimd not healthy after 10s")
		}
	}
}

func (d *daemonProc) pid() string { return strconv.Itoa(d.cmd.Process.Pid) }

// stop asks the daemon to drain and exit, kills it if it has not after
// ten seconds, and waits for it either way.
func (d *daemonProc) stop() {
	d.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck // a process that already exited is fine
	select {
	case <-d.exited:
	case <-time.After(10 * time.Second):
		d.cmd.Process.Kill() //nolint:errcheck
		<-d.exited
	}
}

func fetchStats(hc *http.Client, base string) (serve.Stats, error) {
	var st serve.Stats
	resp, err := hc.Get(base + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// runDaemon measures the daemon workload: untraced against a fresh
// tcdsimd process, traced against an in-process serve.Server.
func runDaemon(o options) (*outcome, error) {
	if o.trace {
		return traceDaemon(o)
	}
	out := &outcome{}
	out.Host = newHostInfo()
	out.Host.DaemonGOMAXPROCS = daemonProcs
	if err := checkGolden(o.golden); err != nil {
		out.fail(err)
		return out, nil
	}
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	pool := warmPool(o.seed, o.scale.warmPool)
	cal, err := startCalibrator()
	if err != nil {
		return nil, err
	}
	defer cal.stop()

	// Set-up, repeated: exec until healthy and the warm pool is primed,
	// as the CPU time the daemon spent on it. The last
	// daemon serves the measured load.
	var setup []float64
	var d *daemonProc
	var p *primed
	for i := 0; i < o.scale.daemonSetups; i++ {
		if d != nil {
			d.stop()
		}
		var err error
		if d, err = startDaemon(o.tcdsimd, hc); err != nil {
			return nil, err
		}
		// Calibrate whenever the daemon is idle: after start-up and after
		// each spec primed.
		speed := hostSpeed{cal: cal}
		var cpu time.Duration
		calibrate := func() (err error) {
			if cpu, err = procCPU(d.pid()); err == nil {
				speed.until(time.Duration(calShare * float64(cpu)))
				err = speed.err
			}
			return err
		}
		err = calibrate()
		var np *primed
		if err == nil {
			np, err = prime(hc, d.base, pool, calibrate)
		}
		if err != nil {
			d.stop()
			return nil, err
		}
		setup = append(setup, cpu.Seconds()/speed.slowdown())
		if p != nil {
			for j := range pool {
				if !bytes.Equal(p.bodies[j], np.bodies[j]) || p.hashes[j] != np.hashes[j] {
					out.fail(fmt.Errorf("daemon restart changed the result of %s", pool[j]))
				}
			}
		}
		p = np
	}
	defer d.stop()
	if err := verifyInProcess(p.specs, p.bodies, p.hashes); err != nil {
		out.fail(err)
		return out, nil
	}

	st0, err := fetchStats(hc, d.base)
	if err != nil {
		return nil, err
	}
	cpu0, err := procCPU(d.pid())
	if err != nil {
		return nil, err
	}
	steal0 := stealTicks()
	// Calibrate in every pause for calShare of the daemon's CPU time so
	// far; a failed read shows again after the window.
	speed := hostSpeed{cal: cal}
	calibrate := func() {
		if cpu, err := procCPU(d.pid()); err == nil {
			speed.until(time.Duration(calShare * float64(cpu-cpu0)))
		}
	}
	lr := closedLoop(hc, d.base, p, o.seed, time.Duration(o.seconds)*time.Second, o.scale.coldSampleEvery, false, calibrate)
	if speed.err != nil {
		return nil, speed.err
	}
	out.Host.StealTicks = stealTicks() - steal0
	cpu1, err := procCPU(d.pid())
	if err != nil {
		return nil, err
	}
	st1, err := fetchStats(hc, d.base)
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMB(d.pid())
	if err != nil {
		return nil, err
	}
	out.attempted = lr.attempted
	out.fails.merge(lr.fails)
	if err := lr.verifySamples(); err != nil {
		out.fails.add(err)
	}
	if r := st1.Rejected - st0.Rejected; r != 0 {
		out.fails.add(fmt.Errorf("daemon rejected %d submissions", r))
	}

	ok := len(lr.warmMs) + len(lr.coldMs)
	out.add("setup_s", "s", median(setup), len(setup))
	out.add("ops_per_s", "1/s", float64(ok)/(cpu1-cpu0).Seconds()*speed.slowdown(), ok)
	out.add("host.slowdown", "ratio", speed.slowdown(), speed.runs)
	out.add("peak_rss_mb", "MB", rss, 1)
	out.add("jobs_per_s", "1/s", float64(ok)/lr.wall.Seconds(), ok)
	out.addAll(latencyMetrics("warm_ms", lr.warmMs))
	out.addAll(latencyMetrics("cold_ms", lr.coldMs))
	return out, nil
}

// inProcess hosts a serve.Server on a loopback listener, so the
// benchmark's profiler sees the serve layer and net/http.
type inProcess struct {
	srv  *serve.Server
	hs   *http.Server
	base string
	done chan struct{}
}

func startInProcess() (*inProcess, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ip := &inProcess{
		srv:  serve.New(serve.Config{Workers: 1}),
		base: "http://" + ln.Addr().String(),
		done: make(chan struct{}),
	}
	ip.hs = &http.Server{Handler: ip.srv.Handler()}
	go func() {
		defer close(ip.done)
		ip.hs.Serve(ln) //nolint:errcheck // returns ErrServerClosed on stop
	}()
	return ip, nil
}

func (ip *inProcess) stop() {
	ip.hs.Close() //nolint:errcheck
	<-ip.done
	ip.srv.Close()
}

// traceDaemon is the daemon's traced run: the same closed loop against
// an in-process server, half the window unprofiled and half profiled,
// then the serve layer's entry points timed alone on the same specs.
func traceDaemon(o options) (*outcome, error) {
	out := &outcome{}
	out.Host = newHostInfo()
	if err := checkGolden(o.golden); err != nil {
		out.fail(err)
		return out, nil
	}
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	pool := warmPool(o.seed, o.scale.warmPool)
	half := time.Duration(o.seconds) * time.Second / 2

	window := func(profile bool) (*loadResult, []profileStack, serve.Stats, error) {
		ip, err := startInProcess()
		if err != nil {
			return nil, nil, serve.Stats{}, err
		}
		defer ip.stop()
		p, err := prime(hc, ip.base, pool, nil)
		if err != nil {
			return nil, nil, serve.Stats{}, err
		}
		st0, err := fetchStats(hc, ip.base)
		if err != nil {
			return nil, nil, serve.Stats{}, err
		}
		var lr *loadResult
		var stacks []profileStack
		run := func() { lr = closedLoop(hc, ip.base, p, o.seed, half, o.scale.coldSampleEvery, profile, nil) }
		if profile {
			if stacks, err = cpuProfile(run); err != nil {
				return nil, nil, serve.Stats{}, err
			}
		} else {
			run()
		}
		st1, err := fetchStats(hc, ip.base)
		if err != nil {
			return nil, nil, serve.Stats{}, err
		}
		st1.Submitted -= st0.Submitted
		st1.WarmHits -= st0.WarmHits
		st1.CacheEvicted -= st0.CacheEvicted
		st1.Rejected -= st0.Rejected
		return lr, stacks, st1, nil
	}

	steal0 := stealTicks()
	plain, _, _, err := window(false)
	if err != nil {
		return nil, err
	}
	before := readRuntime()
	traced, stacks, st, err := window(true)
	if err != nil {
		return nil, err
	}
	after := readRuntime()
	out.Host.StealTicks = stealTicks() - steal0
	out.attempted = plain.attempted + traced.attempted
	out.fails.merge(plain.fails)
	out.fails.merge(traced.fails)
	if err := traced.verifySamples(); err != nil {
		out.fails.add(err)
	}
	if st.Rejected != 0 {
		out.fails.add(fmt.Errorf("daemon rejected %d submissions", st.Rejected))
	}
	jobs := float64(len(traced.warmMs) + len(traced.coldMs))
	plainJobs := float64(len(plain.warmMs) + len(plain.coldMs))
	out.addShares(stacks)
	out.add("trace.throughput_ratio", "ratio", (jobs/traced.wall.Seconds())/(plainJobs/plain.wall.Seconds()), int(jobs))
	out.add("alloc.mb_per_run", "MB", (after.allocBytes-before.allocBytes)/1e6/jobs, int(jobs))
	out.add("gc.cycles_per_run", "count", (after.gcCycles-before.gcCycles)/jobs, int(jobs))
	out.add("gc.pause_ms_per_run", "ms", (after.gcPauseSec-before.gcPauseSec)*1e3/jobs, int(jobs))
	out.add("serve.cache_hit_ratio", "ratio", float64(st.WarmHits)/float64(st.Submitted), int(st.Submitted))
	out.add("serve.evicted", "count", float64(st.CacheEvicted), int(st.Submitted))
	out.add("serve.rejected", "count", float64(st.Rejected), int(st.Submitted))

	// The serve layer's entry points, timed alone over the submitted
	// specs; the cold ones' simulations also give the sim-side counts.
	var parseUs, hashUs, execMs []float64
	counts := make(map[string]float64, len(layerCounts))
	ran := 0
	for _, body := range traced.submitted {
		t0 := time.Now()
		spec, err := serve.ParseJobSpec(body)
		parseUs = append(parseUs, float64(time.Since(t0))/1e3)
		if err != nil {
			return nil, err
		}
		t0 = time.Now()
		spec.Hash()
		hashUs = append(hashUs, float64(time.Since(t0))/1e3)
		if spec.Exp != "deadlock-unit" || len(execMs) >= o.scale.execSamples {
			continue
		}
		t0 = time.Now()
		if _, err := serve.CatalogExec(context.Background(), spec, nil); err != nil {
			return nil, err
		}
		execMs = append(execMs, float64(time.Since(t0))/1e6)
		kind := exp.CEE
		if spec.Fabric == "ib" {
			kind = exp.IB
		}
		reg := obs.NewRegistry()
		res := serve.Catalog[spec.Exp].Run(serve.RunCfg{Fabric: kind, Seed: spec.Seed, Obs: obs.Config{Metrics: reg}})
		c, err := registryCounts(reg, res[0])
		if err != nil {
			return nil, err
		}
		for k, v := range c {
			counts[k] += v
		}
		ran++
	}
	if ran == 0 {
		return nil, errors.New("the traced window submitted no cold spec")
	}
	out.add("serve.parse_us", "us", median(parseUs), len(parseUs))
	out.add("serve.hash_us", "us", median(hashUs), len(hashUs))
	out.add("serve.exec_ms", "ms", median(execMs), len(execMs))
	for _, name := range layerCounts {
		out.add(name, "count", counts[name]/float64(ran), ran)
	}
	// The daemon workload builds no topology or rig of its own.
	out.add("topo.build_ms", "ms", 0, 0)
	out.add("routing.build_ms", "ms", 0, 0)
	out.add("exp.rig_build_ms", "ms", 0, 0)
	return out, nil
}
