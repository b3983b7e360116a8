package kgcd

import (
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"mccls/internal/fault"
)

// newTestInjector is a started injector on a fake clock at elapsed time 0.
func newTestInjector(crashes []fault.Crash) (*Injector, *fakeClock) {
	in, clk := NewInjector(crashes), newFakeClock()
	in.clk = clk
	in.Start()
	return in, clk
}

// stalled holds every request that arrives within window of now on clk for
// delay before serving it, and aborts the connection when the peer gives up
// during the stall — a replica that is alive but slow.
func stalled(clk clock, window, delay time.Duration, h http.Handler) http.Handler {
	start := clk.Now()
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if clk.Now().Sub(start) < window && sleep(r.Context(), clk, delay) != nil {
			panic(http.ErrAbortHandler)
		}
		h.ServeHTTP(w, r)
	})
}

func TestVerdictWindows(t *testing.T) {
	in, clk := newTestInjector([]fault.Crash{
		{Node: 1, At: 2 * time.Second, RestartAt: 4 * time.Second},
		{Node: 0, At: 8 * time.Second, RestartAt: 9 * time.Second},
	})
	for _, tc := range []struct {
		at      time.Duration // cases are in time order: the clock only moves forward
		replica int
		drop    bool
	}{
		{0, 0, false},
		{0, 1, false},
		{2 * time.Second, 1, true},
		{2 * time.Second, 0, false}, // someone else's crash
		{4 * time.Second, 1, false}, // [At, RestartAt)
		{8 * time.Second, 0, true},
		{8 * time.Second, 2, false},
		{9 * time.Second, 0, false},
	} {
		clk.advance(tc.at - clk.Now().Sub(in.start))
		if drop := in.verdict(tc.replica); drop != tc.drop {
			t.Errorf("verdict(%d) at %v = %v, want %v", tc.replica, tc.at, drop, tc.drop)
		}
	}
}

func TestPermanentCrashAndUnstarted(t *testing.T) {
	in, clk := NewInjector([]fault.Crash{{Node: 2, At: time.Second}}), newFakeClock()
	in.clk = clk
	// Before Start: no faults at all, however late it is.
	clk.advance(time.Minute)
	if in.verdict(2) {
		t.Fatal("unstarted injector injected a fault")
	}
	in.Start()
	if in.verdict(2) {
		t.Fatal("crashed before its At")
	}
	clk.advance(time.Hour)
	if !in.verdict(2) {
		t.Fatal("permanent crash lifted")
	}
}

func TestMiddlewareInjection(t *testing.T) {
	var reached atomic.Int64
	in, clk := newTestInjector([]fault.Crash{{Node: 0, At: 0, RestartAt: time.Second}})
	srv := httptest.NewServer(in.Middleware(0, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		reached.Add(1)
		io.WriteString(w, "ok")
	})))
	defer srv.Close()
	get := func() (status int, err error) {
		resp, err := http.Get(srv.URL)
		if err != nil {
			return 0, err
		}
		resp.Body.Close()
		return resp.StatusCode, nil
	}

	// Crash window: the connection is aborted — a transport-level error,
	// not an HTTP status.
	if _, err := get(); err == nil {
		t.Fatal("crash window: want a connection error")
	}
	if reached.Load() != 0 {
		t.Fatal("crashed handler was reached")
	}

	// After restart: normal service.
	clk.advance(time.Second)
	if status, err := get(); err != nil || status != 200 || reached.Load() != 1 {
		t.Fatalf("clean window: status %d, %v, reached %d", status, err, reached.Load())
	}
}
