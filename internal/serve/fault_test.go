package serve

// The differential server fault suite: every injected network fault —
// slow-loris headers, slow-loris body, mid-body disconnect, stalled body —
// must end in a typed error response or a shed, never a false Reject, and
// must leave no goroutine behind. Faults are injected with the
// deterministic faultinject.Conn wrapper over a raw TCP dial, because a
// stock http.Client refuses to misbehave in these ways.

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"costar/internal/faultinject"
	"costar/internal/languages/jsonlang"
	"costar/internal/parser"
)

// newFaultServer boots a server with tight network deadlines so fault
// tests converge fast.
func newFaultServer(t *testing.T) *Server {
	t.Helper()
	reg := NewRegistry()
	if _, err := reg.AddLanguage("json", parser.Options{}); err != nil {
		t.Fatal(err)
	}
	s := New(Config{
		Addr:              "127.0.0.1:0",
		ReadHeaderTimeout: 200 * time.Millisecond,
		ReadTimeout:       time.Second,
		WriteTimeout:      time.Second,
		IdleTimeout:       time.Second,
		DefaultBudget:     500 * time.Millisecond,
	}, reg)
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := s.Drain(); err != nil {
			t.Errorf("drain: %v", err)
		}
	})
	return s
}

// rawParseRequest renders an HTTP/1.1 POST /parse/json with the given body
// and declared length (declared may exceed len(body) to model a client
// that promised more than it delivers).
func rawParseRequest(body string, declared int) string {
	return fmt.Sprintf("POST /parse/json HTTP/1.1\r\nHost: fault\r\nContent-Type: text/plain\r\nContent-Length: %d\r\n\r\n%s",
		declared, body)
}

// accounting snapshots the counters the differential assertions compare:
// every fault must move sheds or non-Reject verdicts, never rejects.
type accounting struct {
	rejects  int64
	verdicts int64
	sheds    int64
}

func snapshot(s *Server) accounting {
	var a accounting
	a.rejects = s.met.verdicts[vReject].Load()
	for i := range s.met.verdicts {
		a.verdicts += s.met.verdicts[i].Load()
	}
	a.sheds = s.met.totalShed()
	return a
}

// assertNoFalseReject is the differential check: rejects unchanged, and if
// the handler produced any outcome at all it was a typed verdict or shed.
func assertNoFalseReject(t *testing.T, s *Server, before accounting) {
	t.Helper()
	after := snapshot(s)
	if after.rejects != before.rejects {
		t.Fatalf("network fault produced a false Reject (%d -> %d)", before.rejects, after.rejects)
	}
}

// drainInflight waits for the server to finish whatever the fault left
// in flight before counting goroutines.
func drainInflight(t *testing.T, s *Server) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for s.met.inflight.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("fault left a request permanently in flight")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestFaultSlowLorisHeaders(t *testing.T) {
	s := newFaultServer(t)
	before := snapshot(s)
	baseline := runtime.NumGoroutine()

	nc, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	// One header byte every 30ms: ReadHeaderTimeout (200ms) must cut the
	// connection long before the request line completes.
	conn := faultinject.WrapConn(nc, faultinject.Trickle(1, 30*time.Millisecond))
	_, werr := io.WriteString(conn, rawParseRequest(`{"a":1}`, 7))
	rerr := func() error {
		nc.SetReadDeadline(time.Now().Add(3 * time.Second))
		_, err := nc.Read(make([]byte, 1))
		return err
	}()
	// The server must have torn the connection down (write or read fails);
	// a nil rerr would mean it answered a half-received request.
	if werr == nil && rerr == nil {
		t.Fatal("server answered a slow-loris request instead of cutting it")
	}
	assertNoFalseReject(t, s, before)
	// The handler never ran: no verdicts, no sheds, nothing leaked.
	if after := snapshot(s); after.verdicts != before.verdicts {
		t.Fatalf("slow-loris headers reached the parser (verdicts %d -> %d)", before.verdicts, after.verdicts)
	}
	nc.Close()
	waitGoroutineBaseline(t, baseline)
}

func TestFaultMidBodyDisconnect(t *testing.T) {
	s := newFaultServer(t)
	before := snapshot(s)
	baseline := runtime.NumGoroutine()

	doc := jsonlang.Generate(21, 400)
	req := rawParseRequest(doc, len(doc))
	headerLen := len(req) - len(doc)
	nc, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	// The connection dies after half the body: the parse sees a source
	// failure (or a cancel, if the transport notices first) — typed either
	// way, and never a Reject of input the parser only half-saw.
	conn := faultinject.WrapConn(nc, faultinject.CloseAfterWrite(int64(headerLen+len(doc)/2)))
	if _, err := io.WriteString(conn, req); err != faultinject.ErrConnClosed {
		t.Fatalf("write past the disconnect = %v, want ErrConnClosed", err)
	}
	drainInflight(t, s)
	assertNoFalseReject(t, s, before)
	after := snapshot(s)
	if moved := (after.verdicts - before.verdicts) + (after.sheds - before.sheds); moved > 1 {
		t.Fatalf("one faulted request moved %d counters", moved)
	}
	waitGoroutineBaseline(t, baseline)
}

func TestFaultStalledBody(t *testing.T) {
	s := newFaultServer(t)
	before := snapshot(s)
	baseline := runtime.NumGoroutine()

	doc := jsonlang.Generate(22, 400)
	req := rawParseRequest(doc, len(doc))
	headerLen := len(req) - len(doc)
	nc, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	stallCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	// Half the body arrives, then the client goes silent with the
	// connection open. The parse blocks inside a body read until the
	// request budget (500ms) fires and the read-deadline hook unblocks it.
	conn := faultinject.WrapConn(nc, faultinject.StallWritesAt(int64(headerLen+len(doc)/2), stallCtx))
	writeDone := make(chan error, 1)
	go func() {
		_, err := io.WriteString(conn, req)
		writeDone <- err
	}()

	// The stalled request must come back typed: read the response off the
	// same connection.
	nc.SetReadDeadline(time.Now().Add(4 * time.Second))
	resp, err := http.ReadResponse(bufio.NewReader(nc), nil)
	if err != nil {
		t.Fatalf("reading response to a stalled request: %v", err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode == http.StatusUnprocessableEntity || strings.Contains(string(raw), `"kind":"Reject"`) {
		t.Fatalf("stalled body became a Reject: %d %s", resp.StatusCode, raw)
	}
	// Budget expiry mid-read is a deadline: the read the expiry cut short
	// is its symptom, not a bad request. Deterministic — the stalled read
	// can only fail after the budget fired — so a parse boundary that
	// classified the read error instead answers 400 every time.
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("stalled body got %d, want 504: %s", resp.StatusCode, raw)
	}
	cancel()
	<-writeDone
	drainInflight(t, s)
	assertNoFalseReject(t, s, before)
	waitGoroutineBaseline(t, baseline)
}

func TestFaultSlowLorisBody(t *testing.T) {
	s := newFaultServer(t)
	before := snapshot(s)
	baseline := runtime.NumGoroutine()

	doc := jsonlang.Generate(23, 2000)
	req := rawParseRequest(doc, len(doc))
	nc, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	// Headers arrive instantly, then the body trickles 24 bytes per 20ms —
	// far slower than the 500ms budget can absorb. The demand-driven
	// cursor charges the dawdling to the caller's budget: typed 504/400.
	headerLen := len(req) - len(doc)
	if _, err := io.WriteString(nc, req[:headerLen]); err != nil {
		t.Fatal(err)
	}
	conn := faultinject.WrapConn(nc, faultinject.Trickle(24, 20*time.Millisecond))
	writeDone := make(chan error, 1)
	go func() {
		_, err := io.WriteString(conn, doc)
		writeDone <- err
	}()
	nc.SetReadDeadline(time.Now().Add(4 * time.Second))
	resp, err := http.ReadResponse(bufio.NewReader(nc), nil)
	if err != nil {
		t.Fatalf("reading response to a slow-loris body: %v", err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode == http.StatusUnprocessableEntity || strings.Contains(string(raw), `"kind":"Reject"`) {
		t.Fatalf("slow-loris body became a Reject: %d %s", resp.StatusCode, raw)
	}
	if resp.StatusCode != http.StatusGatewayTimeout && resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("slow-loris body got %d, want 504 or 400: %s", resp.StatusCode, raw)
	}
	nc.Close() // unblocks the trickling writer
	<-writeDone
	drainInflight(t, s)
	assertNoFalseReject(t, s, before)
	waitGoroutineBaseline(t, baseline)
}

// TestFaultConnDeterminism pins the Conn wrapper's byte-precise schedule:
// same options, same boundaries, independent of caller buffer sizes.
func TestFaultConnDeterminism(t *testing.T) {
	client, server := net.Pipe()
	defer server.Close()
	got := make(chan []byte, 1)
	go func() {
		b, _ := io.ReadAll(server)
		got <- b
	}()
	conn := faultinject.WrapConn(client, faultinject.CloseAfterWrite(10))
	n, err := conn.Write([]byte("0123456789abcdef"))
	if n != 10 || err != faultinject.ErrConnClosed {
		t.Fatalf("Write = (%d, %v), want (10, ErrConnClosed)", n, err)
	}
	if _, err := conn.Write([]byte("x")); err != faultinject.ErrConnClosed {
		t.Fatalf("sticky error lost: %v", err)
	}
	if b := <-got; string(b) != "0123456789" {
		t.Fatalf("peer saw %q, want exactly the first 10 bytes", b)
	}
	if conn.WroteBytes() != 10 {
		t.Fatalf("WroteBytes = %d, want 10", conn.WroteBytes())
	}
}
