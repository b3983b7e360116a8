package kgcd

import (
	"net/http"
	"sync"
	"time"

	"mccls/internal/fault"
)

// Injector evaluates crash windows over the signer replicas — the
// simulator's fault.Crash, with Node the replica index — polled per request
// against the package clock instead of pushed onto an event queue. No
// faults before Start is called; after it, windows are evaluated against
// the elapsed time. On the wall clock a chaos drill follows the schedule in
// real time; on the tests' fake clock any instant of it is replayed exactly.
type Injector struct {
	crashes []fault.Crash
	clk     clock

	mu      sync.Mutex
	started bool
	start   time.Time
}

// NewInjector creates an injector over the crash windows. A window with
// RestartAt ≤ At is a permanent crash; RetainRoutes means nothing here.
func NewInjector(crashes []fault.Crash) *Injector {
	return &Injector{crashes: crashes, clk: wallClock{}}
}

// Start pins the schedule's t=0 to the current instant.
func (in *Injector) Start() {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.started, in.start = true, in.clk.Now()
}

// verdict reports whether a crash window drops a request to replica at the
// current instant.
func (in *Injector) verdict(replica int) (drop bool) {
	in.mu.Lock()
	started, start := in.started, in.start
	in.mu.Unlock()
	if !started {
		return false
	}
	e := in.clk.Now().Sub(start)
	for _, c := range in.crashes {
		if c.Node == replica && e >= c.At && (c.RestartAt <= c.At || e < c.RestartAt) {
			return true
		}
	}
	return false
}

// Middleware wraps replica's handler: inside a crash window the connection
// is aborted without an HTTP response — the client sees a mid-request
// network failure, which is what a killed replica looks like. Its signature
// is ClusterConfig.SignerMiddleware's.
func (in *Injector) Middleware(replica int, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if in.verdict(replica) {
			panic(http.ErrAbortHandler) // net/http aborts the connection
		}
		h.ServeHTTP(w, r)
	})
}
