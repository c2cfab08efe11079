package service

// Tests for the hub-backed streaming surface: SSE resume via
// Last-Event-ID, SSE keepalive comment frames under a fake clock, and the
// WebSocket endpoint (live snapshot join, resume, full replay, close
// semantics).

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"adhocga"
	"adhocga/internal/ws"
)

// finishedSmokeJob submits the smoke scenario and waits for completion,
// returning its JobInfo.
func finishedSmokeJob(t *testing.T, srv *httptest.Server) JobInfo {
	t.Helper()
	code, body := doJSON(t, http.MethodPost, srv.URL+"/v1/jobs",
		fmt.Sprintf(`{"scenarios": %s, "parallelism": 1, "scale": "smoke"}`, smokeSpec))
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, body)
	}
	var info JobInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	return waitState(t, srv.URL, info.ID)
}

func TestSSEResumeFromLastEventID(t *testing.T) {
	srv, _ := newTestServer(t)
	info := finishedSmokeJob(t, srv)

	// A reconnecting client that saw events up to seq 3 resumes at 4.
	req, _ := http.NewRequest(http.MethodGet, srv.URL+info.EventsURL, nil)
	req.Header.Set("Accept", "text/event-stream")
	req.Header.Set("Last-Event-ID", "3")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var events []adhocga.Event
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if data, ok := strings.CutPrefix(sc.Text(), "data: "); ok {
			var e adhocga.Event
			if err := json.Unmarshal([]byte(data), &e); err != nil {
				t.Fatal(err)
			}
			events = append(events, e)
		}
	}
	if len(events) == 0 || events[0].Seq != 4 {
		t.Fatalf("resume from Last-Event-ID 3 delivered %+v", events)
	}
	if last := events[len(events)-1]; last.Kind != adhocga.KindDone {
		t.Errorf("resumed stream not terminated by done: %+v", last)
	}

	// Malformed ids are rejected before streaming starts.
	req, _ = http.NewRequest(http.MethodGet, srv.URL+info.EventsURL, nil)
	req.Header.Set("Accept", "text/event-stream")
	req.Header.Set("Last-Event-ID", "banana")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad Last-Event-ID accepted: %d", resp.StatusCode)
	}
}

func TestSSEKeepaliveWithFakeClock(t *testing.T) {
	// One job slot, held by a long-running hog: the second submission
	// stays queued and emits nothing, so its SSE stream is idle from the
	// moment it opens — any frame that arrives must be a keepalive.
	session := adhocga.NewSession(adhocga.WithMaxConcurrentJobs(1))
	defer session.Close()
	// Fake clock: the test controls exactly when keepalive ticks fire.
	tick := make(chan time.Time)
	server := New(session, Options{})
	server.newTicker = func(time.Duration) (<-chan time.Time, func()) {
		return tick, func() {}
	}
	srv := httptest.NewServer(server)
	defer srv.Close()

	// A one-replicate batch of a CSN-free scenario: 20 strategies, 10-node
	// tournaments of 10 rounds.
	spec := func(generations int) adhocga.ScenariosSpec {
		return adhocga.ScenariosSpec{Runs: []adhocga.ScenarioRun{{Spec: adhocga.ScenarioSpec{
			Name:           "keepalive",
			Environments:   []adhocga.ScenarioEnv{{CSN: 0}},
			Population:     20,
			TournamentSize: 10,
			Rounds:         10,
			Generations:    generations,
			Repetitions:    1,
		}, Seed: 7}}}
	}
	// 1<<30 generations never finishes; cancelled at a generation barrier
	// on cleanup.
	hog, err := session.Submit(t.Context(), spec(1<<30))
	if err != nil {
		t.Fatal(err)
	}
	defer hog.Cancel()
	// Job-slot acquisition happens in a per-job goroutine, so two quick
	// submissions race for the single slot. Wait until the hog actually
	// holds it — otherwise the "queued" job can win, run its generation,
	// and emit real events into the stream this test needs idle.
	for hog.State() == adhocga.JobQueued {
		time.Sleep(time.Millisecond)
	}
	if got := hog.State(); got != adhocga.JobRunning {
		t.Fatalf("hog job reached %s (err %v) instead of holding the slot", got, hog.Err())
	}
	job, err := session.Submit(t.Context(), spec(1))
	if err != nil {
		t.Fatal(err)
	}
	defer job.Cancel()

	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/v1/jobs/"+job.ID()+"/events", nil)
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	go func() {
		for i := 0; i < 3; i++ {
			select {
			case tick <- time.Time{}:
			case <-t.Context().Done():
				return
			}
		}
	}()
	sc := bufio.NewScanner(resp.Body)
	pings := 0
	for sc.Scan() && pings < 3 {
		switch line := sc.Text(); {
		case line == ": ping":
			pings++
		case line == "":
		default:
			t.Fatalf("idle stream produced a non-keepalive frame: %q (hog %s err %v, queued job %s)",
				line, hog.State(), hog.Err(), job.State())
		}
	}
	if pings != 3 {
		t.Fatalf("saw %d keepalive pings, want 3 (scan err %v; hog %s err %v)",
			pings, sc.Err(), hog.State(), hog.Err())
	}
}

// wsURL rewrites an httptest http:// URL into the ws endpoint of a job.
func wsURL(srvURL string, info JobInfo, query string) string {
	return "ws" + strings.TrimPrefix(srvURL, "http") + info.WSURL + query
}

// readEventsUntilClose drains WS text frames until the server's close
// frame, returning the events and the close code.
func readEventsUntilClose(t *testing.T, conn *ws.Conn) ([]adhocga.Event, uint16) {
	t.Helper()
	var events []adhocga.Event
	conn.SetReadDeadline(time.Now().Add(60 * time.Second))
	for {
		op, payload, err := conn.NextMessage()
		if err != nil {
			var ce *ws.CloseError
			if errors.As(err, &ce) {
				return events, ce.Code
			}
			t.Fatalf("ws read: %v", err)
		}
		if op != ws.OpText {
			t.Fatalf("unexpected frame op %d", op)
		}
		var e adhocga.Event
		if err := json.Unmarshal(payload, &e); err != nil {
			t.Fatalf("frame %q: %v", payload, err)
		}
		events = append(events, e)
	}
}

func TestWebSocketFullReplayMatchesNDJSON(t *testing.T) {
	srv, _ := newTestServer(t)
	info := finishedSmokeJob(t, srv)

	conn, err := ws.Dial(wsURL(srv.URL, info, "?replay=full"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	events, code := readEventsUntilClose(t, conn)
	if code != ws.CloseNormal {
		t.Errorf("close code %d, want %d", code, ws.CloseNormal)
	}

	_, ndjson := doJSON(t, http.MethodGet, srv.URL+info.EventsURL, "")
	lines := strings.Split(strings.TrimSpace(string(ndjson)), "\n")
	if len(events) != len(lines) {
		t.Fatalf("ws replay has %d events, NDJSON %d", len(events), len(lines))
	}
	for i, line := range lines {
		b, err := json.Marshal(events[i])
		if err != nil {
			t.Fatal(err)
		}
		if string(b) != line {
			t.Errorf("event %d differs:\nws:     %s\nndjson: %s", i, b, line)
		}
	}
}

func TestWebSocketLiveJoinOnFinishedJobGetsSnapshot(t *testing.T) {
	srv, _ := newTestServer(t)
	info := finishedSmokeJob(t, srv)

	// A live join after completion sees the compacted snapshot — the
	// latest event per stream — and then the close. The terminal done
	// event is always part of it.
	conn, err := ws.Dial(wsURL(srv.URL, info, ""))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	events, code := readEventsUntilClose(t, conn)
	if code != ws.CloseNormal {
		t.Errorf("close code %d", code)
	}
	if len(events) == 0 {
		t.Fatal("live join delivered no snapshot")
	}
	for i := 1; i < len(events); i++ {
		if events[i].Seq <= events[i-1].Seq {
			t.Errorf("snapshot not in sequence order: %d after %d", events[i].Seq, events[i-1].Seq)
		}
	}
	last := events[len(events)-1]
	if last.Kind != adhocga.KindDone {
		t.Errorf("snapshot not terminated by done event: %+v", last)
	}
	// Compaction: the snapshot must be smaller than the full history
	// (the smoke job emits 2 gens × 2 reps; only the latest per stream
	// survives).
	if len(events) >= info.Events {
		t.Errorf("live snapshot has %d events, full history only %d", len(events), info.Events)
	}
}

func TestWebSocketResumeAfter(t *testing.T) {
	srv, _ := newTestServer(t)
	info := finishedSmokeJob(t, srv)

	conn, err := ws.Dial(wsURL(srv.URL, info, "?after=4"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	events, code := readEventsUntilClose(t, conn)
	if code != ws.CloseNormal {
		t.Errorf("close code %d", code)
	}
	if len(events) == 0 || events[0].Seq != 5 {
		t.Fatalf("resume ?after=4 delivered %+v", events)
	}
}

func TestWebSocketStreamsLiveJob(t *testing.T) {
	srv, _ := newTestServer(t)
	code, body := doJSON(t, http.MethodPost, srv.URL+"/v1/jobs",
		fmt.Sprintf(`{"scenarios": %s, "parallelism": 1, "scale": "smoke"}`, longSpec))
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, body)
	}
	var info JobInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}

	conn, err := ws.Dial(wsURL(srv.URL, info, ""))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Follow the live stream for a few generation events, then cancel
	// the job and expect the stream to end with done + close 1000.
	seen := 0
	conn.SetReadDeadline(time.Now().Add(60 * time.Second))
	for {
		_, payload, err := conn.NextMessage()
		if err != nil {
			t.Fatalf("live read: %v", err)
		}
		var e adhocga.Event
		if err := json.Unmarshal(payload, &e); err != nil {
			t.Fatal(err)
		}
		if e.Kind == adhocga.KindGeneration {
			if seen++; seen == 3 {
				break
			}
		}
	}
	if code, _ := doJSON(t, http.MethodDelete, srv.URL+"/v1/jobs/"+info.ID, ""); code != http.StatusAccepted {
		t.Fatalf("cancel: %d", code)
	}
	events, closeCode := readEventsUntilClose(t, conn)
	if closeCode != ws.CloseNormal {
		t.Errorf("close code %d", closeCode)
	}
	if len(events) == 0 {
		t.Fatal("no events after cancel")
	}
	last := events[len(events)-1]
	if last.Kind != adhocga.KindDone || last.Done.State != adhocga.JobCancelled {
		t.Errorf("terminal event %+v, want cancelled done", last)
	}
}

// Regression: ?after=N combined with ?replay=full used to discard the
// resume point (the replay branch overwrote the whole options struct) and
// silently replay from the start. The combination must honor both — a
// gap-free archival replay beginning right after the last seen event.
func TestWebSocketAfterWithFullReplay(t *testing.T) {
	srv, _ := newTestServer(t)
	info := finishedSmokeJob(t, srv)

	conn, err := ws.Dial(wsURL(srv.URL, info, "?after=4&replay=full"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	events, code := readEventsUntilClose(t, conn)
	if code != ws.CloseNormal {
		t.Errorf("close code %d, want %d", code, ws.CloseNormal)
	}
	if len(events) == 0 {
		t.Fatal("no events delivered")
	}
	if events[0].Seq != 5 {
		t.Fatalf("first event Seq = %d, want 5 (?after=4 was discarded)", events[0].Seq)
	}
	// BlockWithDeadline replay of a fully retained history is gap-free.
	for i := 1; i < len(events); i++ {
		if events[i].Seq != events[i-1].Seq+1 {
			t.Errorf("gap in archival replay: %d after %d", events[i].Seq, events[i-1].Seq)
		}
	}
	if last := events[len(events)-1]; last.Kind != adhocga.KindDone {
		t.Errorf("replay not terminated by done event: %+v", last)
	}
}

// Regression: tearing a WebSocket stream down mid-job (service shutdown)
// used to drop the TCP connection with no close frame, so clients could
// not tell a shutdown from a network fault. The server now sends close
// 1011 "going away".
func TestWebSocketShutdownSendsGoingAway(t *testing.T) {
	session := adhocga.NewSession()
	defer session.Close()
	server := New(session, Options{})
	srv := httptest.NewServer(server)
	defer srv.Close()

	code, body := doJSON(t, http.MethodPost, srv.URL+"/v1/jobs",
		fmt.Sprintf(`{"scenarios": %s, "parallelism": 1, "scale": "smoke"}`, longSpec))
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, body)
	}
	var info JobInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	conn, err := ws.Dial(wsURL(srv.URL, info, ""))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Make sure the stream is really flowing before pulling the plug.
	conn.SetReadDeadline(time.Now().Add(60 * time.Second))
	if _, _, err := conn.NextMessage(); err != nil {
		t.Fatalf("first live event: %v", err)
	}
	server.Shutdown()
	_, closeCode := readEventsUntilClose(t, conn)
	if closeCode != ws.CloseGoingAway {
		t.Fatalf("close code %d, want %d (server shutdown must send a close frame)",
			closeCode, ws.CloseGoingAway)
	}
}

func TestWebSocketBadRequests(t *testing.T) {
	srv, _ := newTestServer(t)
	info := finishedSmokeJob(t, srv)

	if _, err := ws.Dial(wsURL(srv.URL, info, "?after=nope")); err == nil {
		t.Error("bad ?after accepted")
	}
	if _, err := ws.Dial("ws" + strings.TrimPrefix(srv.URL, "http") + "/v1/jobs/job-99/ws"); err == nil {
		t.Error("missing job upgraded")
	}
	// A plain GET (no upgrade headers) must come back as a normal HTTP
	// error, not a hijacked socket.
	resp, err := http.Get(srv.URL + info.WSURL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("plain GET on /ws: %d", resp.StatusCode)
	}
}
