package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dataset"
	"repro/internal/llm"
	"repro/internal/obs"
	"repro/internal/seed"
	"repro/internal/server"
)

// Fixed load settings, identical on every workload.
const (
	// clients is the closed loop's concurrency: one HTTP connection each.
	clients = 2
	// llmLatency is the modeled round trip of every LLM call, the same
	// constant the memory benchmark in cmd/benchrun uses.
	llmLatency = 25 * time.Millisecond
	// flushPolicy describes the evidence store's default write policy.
	flushPolicy = "os-write-per-append,no-fsync"
	// traceCapacity retains enough traces in the traced run to read the
	// batcher spans of the sampled requests back.
	traceCapacity = 4096
)

// stack is a running server on a loopback port.
type stack struct {
	srv  *server.Server
	base string
	hs   *http.Server
	done chan struct{}
}

// startServer stands server.New up on 127.0.0.1 with the benchmark's fixed
// config. traced turns the server's span collection on; storeDir, when
// set, makes the evidence and memory stores durable under it.
func startServer(c *dataset.Corpus, client llm.Client, traced bool, storeDir string) (*stack, error) {
	cfg := server.Config{
		Corpora:        []*dataset.Corpus{c},
		Client:         client,
		Variant:        seed.VariantGPT,
		BatchWindow:    2 * time.Millisecond,
		BatchMax:       16,
		MaxInFlight:    1024,
		RequestTimeout: time.Minute,
		Memory:         true,
		TraceCapacity:  -1,
		StoreSeed:      corpusSeed,
		Logger:         slog.New(slog.DiscardHandler),
	}
	if traced {
		cfg.TraceCapacity = traceCapacity
	}
	if storeDir != "" {
		cfg.StoreDir = storeDir + "/evidence"
		cfg.MemoryDir = storeDir + "/memory"
	}
	srv, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	st := &stack{srv: srv, base: "http://" + ln.Addr().String(), hs: &http.Server{Handler: srv.Handler()}, done: make(chan struct{})}
	go func() {
		defer close(st.done)
		_ = st.hs.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return st, nil
}

// close stops the listener, waits for the serve loop to exit, and closes
// the server (flushing its stores).
func (st *stack) close() {
	_ = st.hs.Close()
	<-st.done
	st.srv.Close()
}

// newClient returns an HTTP client that holds exactly one connection.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
	}}
}

// outcome is one completed request as the client saw it.
type outcome struct {
	req int   // position in the request stream
	seq int64 // position in the replay: pass seq/len(stream)
	// done is the completion time, from the window's start.
	done    time.Duration
	latency time.Duration
	status  int
	body    []byte
	traceID string
}

// drive runs a closed loop of n clients: each sends its next request as
// soon as the previous one completes, taking stream positions from a
// shared counter. With once set the stream is served at most once, and
// no request starts after the window closes. Otherwise it is replayed
// round-robin, and when the window closes the pass in progress is
// completed, so a window always covers whole passes and measures the
// same mix on every run. A transport error aborts the run.
func drive(ctx context.Context, base string, stream []request, n int, window time.Duration, once bool) ([]outcome, error) {
	var next atomic.Int64
	var end atomic.Int64 // first position not served, once the window closed
	end.Store(math.MaxInt64)
	results := make([][]outcome, n)
	errs := make([]error, n)
	start := time.Now()
	deadline := start.Add(window)
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			hc := newClient()
			defer hc.CloseIdleConnections()
			for ctx.Err() == nil {
				i := next.Add(1) - 1
				if once && i >= int64(len(stream)) {
					return
				}
				if time.Now().After(deadline) {
					if once {
						return
					}
					// Round up to the end of the current pass.
					passEnd := (i + int64(len(stream)) - 1) / int64(len(stream)) * int64(len(stream))
					for e := end.Load(); passEnd < e && !end.CompareAndSwap(e, passEnd); e = end.Load() {
					}
				}
				if i >= end.Load() {
					return
				}
				pos := int(i % int64(len(stream)))
				o, err := post(ctx, hc, base, stream[pos].body)
				if err != nil {
					errs[c] = fmt.Errorf("request %d: %w", pos, err)
					return
				}
				o.req, o.seq, o.done = pos, i, time.Since(start)
				results[c] = append(results[c], o)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	var all []outcome
	for _, r := range results {
		all = append(all, r...)
	}
	return all, nil
}

// post sends one /v1/query request and reads the whole response.
func post(ctx context.Context, hc *http.Client, base string, body []byte) (outcome, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/query", bytes.NewReader(body))
	if err != nil {
		return outcome{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	t0 := time.Now()
	resp, err := hc.Do(req)
	if err != nil {
		return outcome{}, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(t0)
	if err != nil {
		return outcome{}, err
	}
	return outcome{latency: lat, status: resp.StatusCode, body: data, traceID: resp.Header.Get(obs.TraceIDHeader)}, nil
}

// timedClient wraps the LLM client the traced run passes to the server,
// accumulating the wall time requests spend waiting on the model.
type timedClient struct {
	inner llm.Client
	nanos atomic.Int64
}

func (c *timedClient) Complete(req llm.Request) (llm.Response, error) {
	t0 := time.Now()
	resp, err := c.inner.Complete(req)
	c.nanos.Add(int64(time.Since(t0)))
	return resp, err
}
