package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"adhocga"
	"adhocga/internal/jobstore"
	"adhocga/internal/league"
	"adhocga/internal/service"
)

// stack is adhocd assembled in-process exactly as cmd/adhocd assembles it
// with -store file -champions: a WAL job store and a WAL champion archive
// under one data directory, a Session with the daemon's default options
// and a pool of nproc slots, service.New over both, Recover, and an
// http.Server on a loopback listener. The service is handed the
// *jobstore.File itself, so its metrics find the WAL families they look
// for and the server is the one cmd/adhocd builds. In a traced pass the
// handler is wrapped to time every request, and the File's fsync
// observer records each fsync's latency; the observer is installed after
// service.New, so it takes the place of the service's
// adhocd_wal_fsync_seconds hook and that histogram stays empty (the
// family is still exposed; adhocd-reads fsyncs nothing after its reopen,
// and adhocd-jobs does not scrape /metrics).
type stack struct {
	file    *jobstore.File
	handler *timedHandler // nil untraced
	archive *league.Archive
	session *adhocga.Session
	svc     *service.Server
	srv     *http.Server
	served  chan error
	base    string

	// Set-up phases, for setup_s and the per-layer open/recover figures.
	openDur, recoverDur, setupDur time.Duration

	mu     sync.Mutex
	fsyncs []float64 // ms, traced only
}

// openStack brings the daemon up on dir and waits for /healthz to answer.
func openStack(ctx context.Context, dir string, tr *tracer) (*stack, error) {
	t0 := time.Now()
	setupSpan := tr.begin("stack.setup", 0, "")
	defer tr.end(setupSpan)
	st := &stack{}
	sp := tr.begin("jobstore.open", setupSpan, "")
	file, err := jobstore.OpenFile(dir)
	tr.end(sp)
	st.openDur = time.Since(t0)
	if err != nil {
		return nil, err
	}
	st.file = file
	sp = tr.begin("league.open", setupSpan, "")
	st.archive, err = adhocga.OpenChampionArchive(filepath.Join(dir, "champions"))
	tr.end(sp)
	if err != nil {
		file.Close()
		return nil, err
	}
	logger := slog.New(slog.DiscardHandler)
	st.session = adhocga.NewSession(
		adhocga.WithPoolSize(runtime.NumCPU()),
		adhocga.WithMaxConcurrentJobs(4),
		adhocga.WithDefaultScale(adhocga.ScaleDefault),
		adhocga.WithJobRetention(256),
		adhocga.WithHubConfig(adhocga.HubConfig{}),
		adhocga.WithLogger(logger),
		adhocga.WithChampionArchive(st.archive),
	)
	st.svc = service.New(st.session, service.Options{
		DefaultScale:      adhocga.ScaleDefault,
		KeepaliveInterval: 15 * time.Second,
		Store:             file,
		Champions:         st.archive,
		Version:           "perfbench",
		Logger:            logger,
	})
	if tr != nil {
		file.OnFsync(st.observeFsync)
	}
	sp = tr.begin("service.recover", setupSpan, "")
	r0 := time.Now()
	_, _, err = st.svc.Recover(ctx)
	st.recoverDur = time.Since(r0)
	tr.end(sp)
	if err != nil {
		st.closeStores()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.closeStores()
		return nil, err
	}
	var h http.Handler = st.svc
	if tr != nil {
		st.handler = &timedHandler{next: st.svc, tr: tr, byReq: map[int64]time.Duration{}, byRoute: map[string][]float64{}}
		h = st.handler
	}
	st.srv = &http.Server{Handler: h}
	st.served = make(chan error, 1)
	go func() { st.served <- st.srv.Serve(ln) }()
	st.base = "http://" + ln.Addr().String()
	hc := newClient(st.base, nil, nil)
	defer hc.close()
	rep, err := hc.do("GET", "/healthz", nil, setupSpan, "")
	if err == nil && (rep.status != http.StatusOK || !bytes.Contains(rep.body, []byte(`"status": "ok"`))) {
		err = fmt.Errorf("healthz: %d %s", rep.status, rep.body)
	}
	if err != nil {
		st.close()
		return nil, err
	}
	st.setupDur = time.Since(t0)
	return st, nil
}

// close shuts the daemon down in cmd/adhocd's order: streams, listener,
// session, then the stores.
func (st *stack) close() {
	st.svc.Shutdown()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = st.srv.Shutdown(ctx) // a drain timeout still closes the listener
	if err := <-st.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Printf("perfbench: serve: %v\n", err)
	}
	st.closeStores()
}

func (st *stack) closeStores() {
	st.session.Close()
	st.archive.Close()
	st.file.Close()
}

func (st *stack) observeFsync(d time.Duration) {
	st.mu.Lock()
	st.fsyncs = append(st.fsyncs, ms(d))
	st.mu.Unlock()
}

// fsyncSamples copies the fsync latencies observed so far.
func (st *stack) fsyncSamples() []float64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return append([]float64(nil), st.fsyncs...)
}

// timedHandler wraps Server.ServeHTTP: handler time per route pattern, and
// per request (keyed by the client's X-Bench-Req header) so the client can
// subtract it from its own time to get the transport share.
type timedHandler struct {
	next http.Handler
	tr   *tracer

	mu      sync.Mutex
	byReq   map[int64]time.Duration
	byRoute map[string][]float64 // ms
}

func (h *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	parent, _ := strconv.ParseInt(r.Header.Get("X-Bench-Span"), 10, 64)
	sp := h.tr.begin("service.handler", parent, r.Header.Get("X-Bench-Job"))
	t0 := time.Now()
	h.next.ServeHTTP(w, r)
	d := time.Since(t0)
	h.tr.end(sp)
	req, _ := strconv.ParseInt(r.Header.Get("X-Bench-Req"), 10, 64)
	h.mu.Lock()
	if req != 0 {
		h.byReq[req] = d
	}
	h.byRoute[r.Pattern] = append(h.byRoute[r.Pattern], ms(d))
	h.mu.Unlock()
}

// take removes and returns the handler time recorded for one request.
func (h *timedHandler) take(req int64) (time.Duration, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	d, ok := h.byReq[req]
	delete(h.byReq, req)
	return d, ok
}

// routeKeys names each route pattern in per-layer metric keys.
var routeKeys = map[string]string{
	"POST /v1/jobs":             "post_jobs",
	"GET /v1/jobs":              "get_jobs",
	"GET /v1/jobs/{id}":         "get_job",
	"GET /v1/jobs/{id}/events":  "get_events",
	"GET /v1/jobs/{id}/ws":      "get_ws",
	"POST /v1/jobs/{id}/verify": "post_verify",
	"GET /v1/champions":         "get_champions",
	"POST /v1/league":           "post_league",
	"GET /metrics":              "get_metrics",
}

// client is one closed-loop load generator: a keep-alive HTTP/1.1
// transport limited to a single connection, so the benchmark never holds
// more loopback connections than it has clients.
type client struct {
	base      string
	transport *http.Transport
	http      *http.Client
	tr        *tracer
	handler   *timedHandler

	mu          sync.Mutex
	transportMS []float64 // client ms minus handler ms, per request
	clientMS    []float64 // client ms of requests with a handler time
	handlerMS   []float64
}

var reqSeq atomic.Int64

func newClient(base string, tr *tracer, h *timedHandler) *client {
	t := &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}
	return &client{base: base, transport: t, http: &http.Client{Transport: t}, tr: tr, handler: h}
}

func (c *client) close() { c.transport.CloseIdleConnections() }

// reply is one finished request: status, body (for do), the client's
// time and — in a traced pass — the handler's time for the same request.
type reply struct {
	status  int
	body    []byte
	dur     time.Duration
	handler time.Duration
}

// do sends one request and reads the whole response body.
func (c *client) do(method, path string, body []byte, parent int64, job string) (reply, error) {
	var out []byte
	rep, err := c.stream(method, path, body, parent, job, func(resp *http.Response) error {
		var err error
		out, err = io.ReadAll(resp.Body)
		return err
	})
	rep.body = out
	return rep, err
}

// stream sends one request and hands the response to read, timing the
// whole exchange. In a traced pass it also records the transport time:
// the client's time minus the handler's.
func (c *client) stream(method, path string, body []byte, parent int64, job string, read func(*http.Response) error) (reply, error) {
	var rep reply
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return rep, err
	}
	id := reqSeq.Add(1)
	sp := c.tr.begin("client "+method, parent, job)
	if c.tr != nil {
		req.Header.Set("X-Bench-Req", strconv.FormatInt(id, 10))
		req.Header.Set("X-Bench-Span", strconv.FormatInt(sp, 10))
		req.Header.Set("X-Bench-Job", job)
	}
	t0 := time.Now()
	resp, err := c.http.Do(req)
	if err != nil {
		c.tr.end(sp)
		rep.dur = time.Since(t0)
		return rep, fmt.Errorf("%s %s: %w", method, path, err)
	}
	rep.status = resp.StatusCode
	err = read(resp)
	resp.Body.Close()
	rep.dur = time.Since(t0)
	c.tr.end(sp)
	if err != nil {
		return rep, fmt.Errorf("%s %s: %w", method, path, err)
	}
	if c.handler != nil {
		// The wrapper records the handler's time before the server
		// flushes the end of the response, so it is normally there once
		// the body is read; a brief wait covers scheduling.
		for i := 0; i < 100; i++ {
			if hd, ok := c.handler.take(id); ok {
				rep.handler = hd
				c.mu.Lock()
				c.transportMS = append(c.transportMS, ms(rep.dur-hd))
				c.clientMS = append(c.clientMS, ms(rep.dur))
				c.handlerMS = append(c.handlerMS, ms(hd))
				c.mu.Unlock()
				break
			}
			time.Sleep(50 * time.Microsecond)
		}
	}
	return rep, nil
}

// lines reads an NDJSON body line by line, calling fn with each line and
// its arrival time; it returns the bytes read.
func lines(r io.Reader, fn func(line []byte, at time.Time) error) (int64, error) {
	br := bufio.NewReaderSize(r, 64<<10)
	var n int64
	for {
		line, err := br.ReadBytes('\n')
		n += int64(len(line))
		if len(bytes.TrimSpace(line)) > 0 {
			if ferr := fn(line, time.Now()); ferr != nil {
				return n, ferr
			}
		}
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
	}
}
