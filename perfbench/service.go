package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"dfence/internal/serve"
	"dfence/internal/trace"
)

// Service shape: two concurrent jobs with one synthesis worker each, two
// closed-loop clients, table3 cells at a reduced K, and one repeat of an
// earlier job after every three fresh ones.
const (
	serviceJobs    = 2
	serviceClients = 2
	serviceK       = 200
	repeatEvery    = 3
	// repeatLag keeps a repeat's target well behind the submission front,
	// so it has usually finished and the repeat exercises the memo.
	repeatLag = 8
	// pollEvery is how often a client polls its job's state.
	pollEvery = 2 * time.Millisecond
	// jobTimeout fails a job that never reaches a terminal state.
	jobTimeout = 120 * time.Second
)

// service drives an in-process serve.Server on a fresh spool over
// loopback HTTP: the only path through the queue, the spool, journal
// fsyncs, the memo, and the service's always-on metrics, journal and
// tracer. table3's traced run drives one pass of its cells through it for
// the serve.* figures. A task is one submitted job, timed from submit to
// the client seeing it done.
type service struct {
	o      options
	cells  []cell
	spool  string
	srv    *serve.Server
	hs     *http.Server
	served chan struct{}
	base   string
	client *http.Client
}

// startService starts a server on a fresh spool under dir.
func startService(o options, dir string, cells []cell) (*service, error) {
	w := &service{o: o, cells: cells, spool: filepath.Join(dir, "spool")}
	srv, err := serve.New(serve.Options{Dir: w.spool, Jobs: serviceJobs})
	if err != nil {
		return nil, err
	}
	srv.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Drain(context.Background())
		return nil, err
	}
	w.srv = srv
	w.hs = &http.Server{Handler: srv.Handler()}
	w.served = make(chan struct{})
	go func() {
		defer close(w.served)
		_ = w.hs.Serve(ln) // returns http.ErrServerClosed on close
	}()
	w.base = "http://" + ln.Addr().String()
	w.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * serviceClients}}
	resp, err := w.client.Get(w.base + "/readyz")
	if err != nil {
		w.close()
		return nil, fmt.Errorf("service not ready: %w", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		w.close()
		return nil, fmt.Errorf("service not ready: %s", resp.Status)
	}
	return w, nil
}

// close stops the HTTP server and drains the job server, waiting for
// both; the spool stays until the run's scratch directory is removed.
func (w *service) close() {
	_ = w.hs.Close()
	<-w.served
	w.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), jobTimeout)
	defer cancel()
	_ = w.srv.Drain(ctx)
}

// submission is one job a client submits: a fresh cell, or a repeat of
// the fresh submission at index target.
type submission struct {
	spec   serve.JobSpec
	name   string
	target int // -1 for a fresh job
}

// plan lays out the submissions: every table3 cell once at the run's
// seed, in a seeded order, with a repeat of an earlier fresh job after
// every repeatEvery fresh ones.
func (w *service) plan() []submission {
	seed := w.o.seed
	rng := rand.New(rand.NewSource(seed))
	order := rng.Perm(len(w.cells))
	var subs []submission
	for n, ci := range order {
		c := w.cells[ci]
		subs = append(subs, submission{
			spec: serve.JobSpec{
				Builtin: c.bench.Name, Model: strings.ToLower(c.model.String()),
				Criterion: criterionNames[c.crit], Seed: seed, Execs: serviceK, Workers: 1,
			},
			name:   c.key(),
			target: -1,
		})
		if (n+1)%repeatEvery == 0 && len(subs) > repeatLag {
			t := rng.Intn(len(subs) - repeatLag)
			subs = append(subs, submission{spec: subs[t].spec, name: subs[t].name + " (repeat)", target: t})
		}
	}
	return subs
}

// outcome is what a client saw for one submission.
type outcome struct {
	latency   time.Duration
	submit    time.Duration
	job       *serve.Job
	fromMemo  bool
	queueWait time.Duration // submit to running, when a poll saw running
	err       error
}

// drive runs subs through the service with a closed loop of clients.
func (w *service) drive(subs []submission) []outcome {
	outs := make([]outcome, len(subs))
	var mu sync.Mutex
	next := 0
	var wg sync.WaitGroup
	for c := 0; c < serviceClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				k := next
				next++
				mu.Unlock()
				if k >= len(subs) {
					return
				}
				outs[k] = w.submitAndWait(subs[k].spec)
			}
		}()
	}
	wg.Wait()
	return outs
}

// submitAndWait posts one job and polls it until it is terminal.
func (w *service) submitAndWait(spec serve.JobSpec) outcome {
	var o outcome
	body, err := json.Marshal(spec)
	if err != nil {
		o.err = err
		return o
	}
	start := time.Now()
	resp, err := w.client.Post(w.base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		o.err = err
		return o
	}
	var sub struct {
		ID       string `json:"id"`
		FromMemo bool   `json:"from_memo"`
	}
	err = decodeResponse(resp, &sub)
	o.submit = time.Since(start)
	if err != nil {
		o.err = fmt.Errorf("submit: %w", err)
		return o
	}
	o.fromMemo = sub.FromMemo
	for {
		job, err := w.getJob(sub.ID)
		if err != nil {
			o.err = err
			return o
		}
		switch job.State {
		case serve.StateRunning:
			if o.queueWait == 0 {
				o.queueWait = job.UpdateTime.Sub(job.SubmitTime)
			}
		case serve.StateDone, serve.StateFailed, serve.StateQuarantined:
			o.latency = time.Since(start)
			o.job = job
			return o
		}
		if time.Since(start) > jobTimeout {
			o.err = fmt.Errorf("job %s still %s after %v", sub.ID, job.State, jobTimeout)
			return o
		}
		time.Sleep(pollEvery)
	}
}

func (w *service) getJob(id string) (*serve.Job, error) {
	resp, err := w.client.Get(w.base + "/jobs/" + id)
	if err != nil {
		return nil, err
	}
	var job serve.Job
	if err := decodeResponse(resp, &job); err != nil {
		return nil, fmt.Errorf("job %s: %w", id, err)
	}
	return &job, nil
}

func decodeResponse(resp *http.Response, v any) error {
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		msg, _ := io.ReadAll(resp.Body) // best effort: the status already fails the call
		return fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(msg)))
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// tasksOf judges the outcomes: a job fails when it does not reach done,
// and a repeat fails when its result differs from its target's.
func tasksOf(subs []submission, outs []outcome) []task {
	tasks := make([]task, len(subs))
	lines := make([]string, len(subs))
	for k, s := range subs {
		o := outs[k]
		t := task{name: "serve " + s.name, latency: o.latency, aux: true}
		switch {
		case o.err != nil:
			t.fail, t.hard = o.err.Error(), true
		case o.job.State != serve.StateDone || o.job.Result == nil:
			t.fail, t.hard = fmt.Sprintf("job %s: %s", o.job.State, o.job.Error), true
		default:
			lines[k] = resultKey(o.job.Result)
		}
		tasks[k] = t
	}
	for k, s := range subs {
		if s.target >= 0 && tasks[k].fail == "" && lines[k] != lines[s.target] {
			tasks[k].fail, tasks[k].hard = "repeat's result differs from the first run's", true
		}
	}
	return tasks
}

// resultKey is a job result without its timings.
func resultKey(r *serve.JobResult) string {
	return fmt.Sprintf("%s fences=%v synthesized=%d redundant=%d rounds=%d execs=%d unfixable=%v",
		r.Outcome, r.Fences, r.SynthesizedFences, r.Redundant, r.Rounds, r.TotalExecutions, r.Unfixable)
}

// serveLayer drives one pass through the server and measures the
// service layer from the client and the spool.
func (w *service) serveLayer() (map[string]float64, []task, error) {
	subs := w.plan()
	outs := w.drive(subs)
	tasks := tasksOf(subs, outs)
	var submitUS, waitMS, overheadMS []float64
	var repeats, memoHits, fresh int
	for k, s := range subs {
		o := outs[k]
		if tasks[k].fail != "" {
			continue
		}
		submitUS = append(submitUS, float64(o.submit)/1e3)
		if s.target >= 0 {
			repeats++
			if o.fromMemo {
				memoHits++
			}
			continue
		}
		fresh++
		if o.queueWait > 0 {
			waitMS = append(waitMS, float64(o.queueWait)/1e6)
		}
		run, err := w.jobRunSpan(o.job.ID)
		if err != nil {
			return nil, nil, err
		}
		overheadMS = append(overheadMS, float64(o.latency-run)/1e6)
	}
	spool, err := spoolBytes(w.spool)
	if err != nil {
		return nil, nil, err
	}
	return map[string]float64{
		"serve.submit_us":           median(submitUS),
		"serve.queue_wait_ms":       median(waitMS),
		"serve.overhead_ms":         median(overheadMS),
		"serve.memo_hit_frac":       ratio(memoHits, repeats),
		"serve.spool_bytes_per_job": fdiv(float64(spool), float64(fresh)),
	}, tasks, nil
}

// jobRunSpan fetches a job's span trace over HTTP and returns the
// duration of its synthesis run span.
func (w *service) jobRunSpan(id string) (time.Duration, error) {
	resp, err := w.client.Get(w.base + "/jobs/" + id + "/trace")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("trace of job %s: %s", id, resp.Status)
	}
	d, err := trace.Read(resp.Body)
	if err != nil {
		return 0, fmt.Errorf("trace of job %s: %w", id, err)
	}
	var run float64
	for _, ev := range d.TraceEvents {
		if ev.Ph == "X" && ev.Tid == 0 && ev.Name == "run" {
			run += ev.Dur
		}
	}
	return time.Duration(run * 1e3), nil
}

// spoolBytes sums the sizes of the spool's files.
func spoolBytes(dir string) (total int64, err error) {
	err = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				return nil // a temp file renamed away mid-walk
			}
			return err
		}
		if d.IsDir() {
			return nil
		}
		fi, err := d.Info()
		if err != nil {
			return nil // removed mid-walk
		}
		total += fi.Size()
		return nil
	})
	return total, err
}
