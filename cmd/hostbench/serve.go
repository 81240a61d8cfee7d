package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/experiments"
	"repro/internal/serve"
)

// The serve workload: capacity-planning users sending what-if queries on
// a fixed schedule (an open loop at a constant offered rate). Most
// queries ask a configuration nobody asked before and are computed; a
// Zipf-skewed minority repeats one of a few popular configurations and
// is answered from the cache, or joins an in-flight computation. The
// rate keeps both compute workers busy about half the time, so the
// queue drains between bursts and no query is shed.
const (
	serveRate        = 200.0 // offered queries per second
	serveRequests    = 1000  // simulated requests per query
	servePopular     = 16    // configurations the repeats draw from
	serveRepeatShare = 0.3   // share of queries that repeat a popular configuration
	serveZipfS       = 1.2   // skew of the repeats over the popular configurations
	serveQueueDepth  = 256   // admission queue: deep enough that bursts queue instead of shedding
	serveConns       = 2     // client connections (HTTP/2 streams carry the concurrency)
	serveSetupReps   = 5     // extra servers started (and stopped) to sample set-up time
)

// scheduled is one query of the open-loop schedule.
type scheduled struct {
	at  time.Duration // send time after the schedule starts
	cfg int           // configuration id
}

// queryFor derives the what-if configuration with id k: a Table-2
// workload, an SA(n) design, a load multiplier, and for some a
// mid-run arm fault. Each id has its own simulation seed.
func queryFor(seed int64, k int) serve.Query {
	workloads := []string{"Financial", "Websearch", "TPC-C", "TPC-H"}
	actuators := []int{1, 2, 4}
	scales := []float64{1, 1.25, 1.5, 2}
	q := serve.Query{WhatIfQuery: experiments.WhatIfQuery{
		Workload:     workloads[k%len(workloads)],
		Actuators:    actuators[k/len(workloads)%len(actuators)],
		ArrivalScale: scales[k/7%len(scales)],
		Requests:     serveRequests,
		Seed:         seed*1_000_000 + int64(k),
	}}
	if k%5 == 1 && q.Actuators > 1 {
		q.ArmFaults = []experiments.WhatIfArmFault{{AtFrac: 0.5, Arm: k % q.Actuators}}
	}
	return q
}

// makeSchedule draws the open-loop schedule for the given duration:
// one query every 1/serveRate seconds; each is a repeat of a popular
// configuration (ids below servePopular, Zipf-ranked) with probability
// serveRepeatShare, and otherwise a configuration not seen before.
func makeSchedule(seed int64, d time.Duration) []scheduled {
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, serveZipfS, 1, servePopular-1)
	var out []scheduled
	fresh := servePopular
	for i := 0; ; i++ {
		at := float64(i) / serveRate
		if at >= d.Seconds() {
			return out
		}
		k := fresh
		if rng.Float64() < serveRepeatShare {
			k = int(zipf.Uint64())
		} else {
			fresh++
		}
		out = append(out, scheduled{at: time.Duration(at * float64(time.Second)), cfg: k})
	}
}

// answer is what the client saw for one query.
type answer struct {
	err     error
	status  int
	hit     bool
	sum     [32]byte
	latency float64 // ms, from the scheduled send time
	late    float64 // ms the send started after its scheduled time
}

// server is one in-process idpserved: serve.Server's handler behind an
// http.Server on a loopback port, speaking HTTP/1.1 and unencrypted
// HTTP/2.
type server struct {
	srv   *serve.Server
	hs    *http.Server
	url   string
	done  chan error
	conns atomic.Int64
}

func h2cProtocols(http1 bool) *http.Protocols {
	var p http.Protocols
	p.SetHTTP1(http1)
	p.SetUnencryptedHTTP2(true)
	return &p
}

func newClient() *http.Client {
	return &http.Client{
		Timeout:   2 * time.Minute,
		Transport: &http.Transport{Protocols: h2cProtocols(false), MaxConnsPerHost: serveConns},
	}
}

// startServer starts a fresh server and waits until /healthz answers;
// the time that takes is the workload's set-up time.
func startServer(client *http.Client) (*server, time.Duration, error) {
	start := time.Now()
	s := &server{
		srv:  serve.NewServer(serve.Config{Workers: runtime.NumCPU(), QueueDepth: serveQueueDepth}),
		done: make(chan error, 1),
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.srv.Drain(context.Background())
		return nil, 0, err
	}
	s.url = "http://" + ln.Addr().String()
	s.hs = &http.Server{
		Handler:   s.srv.Handler(),
		Protocols: h2cProtocols(true),
		ConnState: func(_ net.Conn, st http.ConnState) {
			if st == http.StateNew {
				s.conns.Add(1)
			}
		},
	}
	go func() { s.done <- s.hs.Serve(ln) }()
	for {
		resp, err := client.Get(s.url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(start), nil
			}
		}
		if time.Since(start) > 10*time.Second {
			s.stop()
			return nil, 0, fmt.Errorf("server not healthy after 10s: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop closes the listener, drains admitted work and waits for the
// serving goroutine to return.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.hs.Shutdown(ctx); err != nil {
		return err
	}
	if err := s.srv.Drain(ctx); err != nil {
		return err
	}
	if err := <-s.done; err != http.ErrServerClosed {
		return err
	}
	return nil
}

func (s *server) stats(client *http.Client) (serve.Stats, error) {
	var st serve.Stats
	resp, err := client.Get(s.url + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// scheduleRun is what one pass over the schedule measured.
type scheduleRun struct {
	answers  []answer
	setups   []float64 // s
	wall     time.Duration
	alloc    float64
	final    serve.Stats
	queueMax int
	conns    int64
}

// runSchedule starts a fresh server (after serveSetupReps throwaway
// starts that only sample set-up time), sends the schedule open-loop,
// waits for every answer and stops the server. With tr set it records
// a span per query and polls /v1/stats for the queue depth.
func runSchedule(sched []scheduled, payloads map[int][]byte, tr *tracer) (*scheduleRun, error) {
	client := newClient()
	defer client.CloseIdleConnections()
	run := &scheduleRun{answers: make([]answer, len(sched))}
	for i := 0; i <= serveSetupReps; i++ {
		s, d, err := startServer(client)
		if err != nil {
			return nil, err
		}
		run.setups = append(run.setups, d.Seconds())
		if i == serveSetupReps {
			if err := run.send(s, client, sched, payloads, tr); err != nil {
				s.stop()
				return nil, err
			}
		}
		if err := s.stop(); err != nil {
			return nil, err
		}
	}
	return run, nil
}

// send runs the open loop against s.
func (run *scheduleRun) send(s *server, client *http.Client, sched []scheduled, payloads map[int][]byte, tr *tracer) error {
	root := tr.begin("bench.schedule", -1)
	stopPoll := make(chan struct{})
	polled := make(chan int, 1)
	go func() {
		maxLen := 0
		defer func() { polled <- maxLen }()
		if tr == nil {
			return
		}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stopPoll:
				return
			case <-tick.C:
				if st, err := s.stats(client); err == nil && st.QueueLen > maxLen {
					maxLen = st.QueueLen
				}
			}
		}
	}()

	mem := readMem()
	var wg sync.WaitGroup
	t0 := time.Now()
	for i, q := range sched {
		due := t0.Add(q.at)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func(i int, q scheduled, due time.Time) {
			defer wg.Done()
			run.answers[i] = query(client, s.url, payloads[q.cfg], due, tr, root)
		}(i, q, due)
	}
	wg.Wait()
	run.wall = time.Since(t0)
	run.alloc = memDelta(mem)
	close(stopPoll)
	run.queueMax = <-polled
	tr.end(root)
	run.conns = s.conns.Load()
	var err error
	run.final, err = s.stats(client)
	return err
}

// query sends one what-if query and records what came back.
func query(client *http.Client, url string, payload []byte, due time.Time, tr *tracer, parent int) answer {
	var a answer
	id := tr.begin("serve.query", parent)
	defer tr.end(id)
	a.late = float64(time.Since(due).Nanoseconds()) / 1e6
	resp, err := client.Post(url+"/v1/query", "application/json", bytes.NewReader(payload))
	if err != nil {
		a.err = err
		a.latency = float64(time.Since(due).Nanoseconds()) / 1e6
		return a
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	a.latency = float64(time.Since(due).Nanoseconds()) / 1e6
	a.err, a.status = err, resp.StatusCode
	a.hit = resp.Header.Get("X-Idp-Cache") == "hit"
	a.sum = sha256.Sum256(body)
	return a
}

// verify checks every answer: status 200, no transport error, and a
// body byte-identical to the same query computed serially on a fresh
// server (one worker, empty cache, one query at a time). It returns the
// number of failed answers and the simulated requests behind the
// distinct answers.
func verify(b *bench, runs []*scheduleRun, scheds [][]scheduled, payloads map[int][]byte) (simRequests float64, err error) {
	ref := serve.NewServer(serve.Config{Workers: 1})
	defer ref.Drain(context.Background())
	h := ref.Handler()
	want := map[int][32]byte{}
	for r, run := range runs {
		for i, a := range run.answers {
			cfg := scheds[r][i].cfg
			if a.err != nil || a.status != http.StatusOK {
				b.fail(1, "query %d (config %d): status %d, error %v", i, cfg, a.status, a.err)
				continue
			}
			sum, ok := want[cfg]
			if !ok {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(payloads[cfg])))
				if rec.Code != http.StatusOK {
					return 0, fmt.Errorf("serial recomputation of config %d: status %d: %s", cfg, rec.Code, rec.Body.String())
				}
				sum = sha256.Sum256(rec.Body.Bytes())
				want[cfg] = sum
				var res serve.Result
				if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
					return 0, err
				}
				simRequests += float64(res.Summary.Count)
			}
			if a.sum != sum {
				b.fail(1, "query %d (config %d): body differs from the serial recomputation", i, cfg)
			}
		}
	}
	return simRequests, nil
}

// checkStats checks the server's own accounting of a run: every query
// counted, every distinct configuration computed exactly once, nothing
// shed, rejected or failed.
func checkStats(b *bench, run *scheduleRun, sched []scheduled) {
	distinct := map[int]bool{}
	for _, q := range sched {
		distinct[q.cfg] = true
	}
	st := run.final
	if st.Queries != uint64(len(sched)) || st.Computed != uint64(len(distinct)) ||
		st.Shed != 0 || st.Rejected != 0 || st.Errors != 0 {
		b.fail(1, "server stats %+v for %d queries over %d configurations", st, len(sched), len(distinct))
	}
	if run.conns > serveConns {
		b.fail(1, "client opened %d connections, limit %d", run.conns, serveConns)
	}
}

func runServe(b *bench) error {
	length := b.seconds
	if b.traced {
		// The traced run sends the first half of the schedule twice,
		// untraced and then traced, each to a fresh server.
		length /= 2
	}
	sched := makeSchedule(b.inSeed, length)
	payloads := map[int][]byte{}
	for _, q := range sched {
		if _, ok := payloads[q.cfg]; !ok {
			data, err := json.Marshal(queryFor(b.inSeed, q.cfg))
			if err != nil {
				return err
			}
			payloads[q.cfg] = data
		}
	}
	b.s.Method["input"] = fmt.Sprintf("open loop, constant rate %g queries/s for %s: %d queries over %d configurations, %d simulated requests each",
		serveRate, length, len(sched), len(payloads), serveRequests)
	b.s.Method["mix"] = fmt.Sprintf("%.0f%% repeat one of %d popular configurations (Zipf s=%g), the rest are new",
		100*serveRepeatShare, servePopular, serveZipfS)
	b.s.Method["server"] = fmt.Sprintf("in-process serve.Server, %d workers, queue %d, HTTP/2 over loopback; client: %d connections at most",
		runtime.NumCPU(), serveQueueDepth, serveConns)
	b.s.Method["unit_of_work"] = "the whole schedule; setup = start a fresh server until /healthz answers"

	passes := 1
	if b.traced {
		passes = 2
	}
	var runs []*scheduleRun
	var scheds [][]scheduled
	tr := newTracer()
	for i := 0; i < passes; i++ {
		var ptr *tracer
		if i == 1 {
			ptr = tr
		}
		run, err := runSchedule(sched, payloads, ptr)
		if err != nil {
			return err
		}
		b.s.Attempted += len(sched)
		checkStats(b, run, sched)
		b.s.Method[fmt.Sprintf("client_connections_%d", i)] = run.conns
		runs = append(runs, run)
		scheds = append(scheds, sched)
	}
	simRequests, err := verify(b, runs, scheds, payloads)
	if err != nil {
		return err
	}

	run := runs[len(runs)-1]
	var lat, late, hits, misses []float64
	for _, a := range run.answers {
		lat = append(lat, a.latency)
		late = append(late, a.late)
		if a.hit {
			hits = append(hits, a.latency)
		} else {
			misses = append(misses, a.latency)
		}
	}
	if !b.traced {
		b.set("setup_s", median(run.setups), "s")
		b.set("wall_s", run.wall.Seconds(), "s")
		b.set("sim_req_per_s", simRequests/run.wall.Seconds(), "req/s")
		b.set("alloc_mb", run.alloc/1e6, "MB")
		b.set("peak_rss_mb", peakRSSMB(), "MB")
		b.set("query_p50_ms", median(lat), "ms")
		b.set("query_p99_ms", percentile(lat, 99), "ms")
		return nil
	}
	var untraced []float64
	for _, a := range runs[0].answers {
		untraced = append(untraced, a.latency)
	}
	var lay layerSamples
	lay.set("serve.hit_ratio", float64(len(hits))/float64(len(run.answers)))
	lay.set("serve.hit_p50_ms", median(hits))
	lay.set("serve.miss_p50_ms", median(misses))
	lay.set("serve.collapsed", float64(run.final.Collapsed))
	lay.set("serve.computed", float64(run.final.Computed))
	lay.set("serve.shed", float64(run.final.Shed))
	lay.set("serve.queue_max", float64(run.queueMax))
	lay.set("bench.late_p99_ms", percentile(late, 99))
	lay.set("bench.trace_overhead_s", (median(lat)-median(untraced))/1000)
	lay.set("bench.spans", float64(len(tr.spans)))
	b.s.LayerSelf = tr.selfTimes()
	if err := tr.write(filepath.Join(b.workdir, fmt.Sprintf("spans-serve-seed%d-%d.jsonl", b.seed, os.Getpid()))); err != nil {
		return err
	}
	b.setLayers(lay)
	return nil
}
