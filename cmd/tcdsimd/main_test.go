package main

import (
	"bufio"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"github.com/tcdnet/tcd/internal/serve"
)

// TestHTTPServerTimeouts pins the slow-client guards: header and request
// read timeouts and an idle timeout are set, and no write timeout is,
// because SSE job streams are long-lived.
func TestHTTPServerTimeouts(t *testing.T) {
	srv := newHTTPServer(":0", http.NotFoundHandler())
	if srv.ReadHeaderTimeout != 5*time.Second {
		t.Errorf("ReadHeaderTimeout = %v, want 5s", srv.ReadHeaderTimeout)
	}
	if srv.ReadTimeout <= 0 || srv.IdleTimeout <= 0 {
		t.Errorf("ReadTimeout = %v, IdleTimeout = %v, want both set", srv.ReadTimeout, srv.IdleTimeout)
	}
	if srv.WriteTimeout != 0 {
		t.Errorf("WriteTimeout = %v, want none (it would cut SSE streams)", srv.WriteTimeout)
	}
}

// TestPartialHeaderClientDisconnected plays a slow client that sends
// half a request header and then stalls: the server must hang up on it
// once the header timeout passes instead of holding the connection open.
// The header timeout is shortened so the test runs quickly.
func TestPartialHeaderClientDisconnected(t *testing.T) {
	srv := newHTTPServer("", http.NotFoundHandler())
	srv.ReadHeaderTimeout = 200 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln) //nolint:errcheck // Serve returns ErrServerClosed on Close
	defer srv.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /v1/exps HTTP/1.1\r\nHost: tcdsimd\r\n"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := conn.SetReadDeadline(start.Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	_, err = io.ReadAll(conn)
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("connection still open after %v: the server kept a stalled partial-header client", time.Since(start))
	}
	if d := time.Since(start); d > 3*time.Second {
		t.Errorf("server took %v to drop the stalled client, header timeout 200ms", d)
	}
}

// TestLongRequestsOutliveReadTimeout holds a job well past the server's
// read timeout and requires both an SSE stream and a ?wait=1 submit to
// see it finish. net/http keeps the read deadline armed while a handler
// runs and cancels the request when it passes, so the daemon must lift
// it once a long-lived request's body is read.
func TestLongRequestsOutliveReadTimeout(t *testing.T) {
	const readTimeout = 200 * time.Millisecond
	release := make(chan struct{})
	exec := func(ctx context.Context, _ *serve.JobSpec, _ io.Writer) ([]byte, error) {
		select {
		case <-release:
			return []byte(`{"ok":true}`), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	s := serve.New(serve.Config{Workers: 1, Exec: exec})
	defer s.Close()
	srv := newHTTPServer("", s.Handler())
	srv.ReadTimeout = readTimeout
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln) //nolint:errcheck // Serve returns ErrServerClosed on Close
	defer srv.Close()
	base := "http://" + ln.Addr().String()
	const spec = `{"exp":"deadlock-unit","seed":3,"horizon_us":50}`

	resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	es, err := http.Get(base + "/v1/jobs/" + resp.Header.Get("X-Job-Id") + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer es.Body.Close()
	events := make(chan []string, 1)
	go func() {
		var types []string
		sc := bufio.NewScanner(es.Body)
		for sc.Scan() {
			if typ, ok := strings.CutPrefix(sc.Text(), "event: "); ok {
				types = append(types, typ)
			}
		}
		events <- types
	}()

	type reply struct {
		status int
		body   string
		err    error
	}
	waited := make(chan reply, 1)
	go func() {
		resp, err := http.Post(base+"/v1/jobs?wait=1", "application/json", strings.NewReader(spec))
		if err != nil {
			waited <- reply{err: err}
			return
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		waited <- reply{resp.StatusCode, string(b), err}
	}()

	time.Sleep(3 * readTimeout)
	close(release)

	select {
	case types := <-events:
		if len(types) == 0 || types[len(types)-1] != "done" {
			t.Errorf("SSE events %v: stream ended before the job's done event", types)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("SSE stream never closed after the job finished")
	}
	select {
	case r := <-waited:
		if r.err != nil || r.status != http.StatusOK || r.body != `{"ok":true}` {
			t.Errorf("?wait=1 reply: status %d body %q err %v, want 200 with the result", r.status, r.body, r.err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("?wait=1 submit never answered")
	}
}
