// Command kgcload is the chaos drill for the kgcd enrollment service. It
// self-hosts a t-of-n deployment on loopback (rate limiting disabled), and
// while closed-loop workers keep one enrollment in flight each — every one
// for an identity never enrolled before, so every one is a cache miss that
// fans out to the replicas — a deterministic fault.Rotation kills one of
// the n replicas every -chaosperiod for -chaosdown (always below quorum
// loss for t ≤ n−1) and a proactive share refresh runs at half-time.
// Afterwards fresh identities are enrolled and byte-compared against the
// single-master oracle.
//
//	kgcload -t 2 -n 3 -concurrency 8 -chaosfor 30s -chaosperiod 5s -chaosdown 2500ms
//
// The drill asserts in-process and exits nonzero when any enrollment failed
// under the below-quorum faults, no replica was killed, no kill reached the
// fan-out (the combiner counted no failed share request), no traffic ran,
// the refresh never committed, or the oracle disagreed. Throughput and latency
// of the fault-free service are the kgc_cold and kgc_warm workloads of the
// repository benchmark (bash bench/run.sh --workload kgc_cold).
package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mccls/internal/bn254"
	"mccls/internal/core"
	"mccls/internal/fault"
	"mccls/internal/kgcd"
	"mccls/internal/threshold"
)

func main() {
	if _, err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "kgcload:", err)
		os.Exit(1)
	}
}

type options struct {
	t, n        int
	concurrency int
	validate    int
	seed        int64
	chaosFor    time.Duration
	chaosPeriod time.Duration
	chaosDown   time.Duration
}

func parseOptions(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("kgcload", flag.ContinueOnError)
	fs.IntVar(&o.t, "t", 2, "quorum")
	fs.IntVar(&o.n, "n", 3, "replica count")
	fs.IntVar(&o.concurrency, "concurrency", 32, "concurrent workers")
	fs.IntVar(&o.validate, "validate", 4, "post-churn enrollments byte-compared against the single-master oracle (≥ 1)")
	fs.Int64Var(&o.seed, "seed", 1, "seed for the master secret")
	fs.DurationVar(&o.chaosFor, "chaosfor", 30*time.Second, "drill duration")
	fs.DurationVar(&o.chaosPeriod, "chaosperiod", 5*time.Second, "interval between replica kills")
	fs.DurationVar(&o.chaosDown, "chaosdown", 2500*time.Millisecond, "how long each killed replica stays down")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() != 0 {
		return o, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if o.n < 1 || o.concurrency < 1 || o.validate < 1 {
		return o, fmt.Errorf("-n, -concurrency and -validate must be ≥ 1")
	}
	if o.chaosDown >= o.chaosPeriod {
		return o, fmt.Errorf("-chaosdown must be < -chaosperiod (one dark replica at a time)")
	}
	return o, nil
}

// summary is what one drill observed; run has already checked it.
type summary struct {
	Requests      int // enrollments attempted under churn
	Errors        int // of which failed
	Kills         int
	ShareFailures int    // share requests the combiner saw fail under churn
	Epoch         uint32 // share epoch after the mid-churn refresh
	OracleChecked int
	P50, P99      time.Duration // successful enrollments under churn
}

// run drives the drill. Every kill leaves t-of-n replicas up, so a failed
// enrollment is a robustness bug, not an expected casualty.
func run(args []string, out io.Writer) (summary, error) {
	o, err := parseOptions(args)
	if err != nil {
		return summary{}, err
	}

	// A deterministic master makes the single-master oracle reproducible,
	// so post-churn issuance can be byte-compared.
	var seedBytes [8]byte
	binary.BigEndian.PutUint64(seedBytes[:], uint64(o.seed))
	h := bn254.HashToFr("kgcload/chaos", seedBytes[:])
	master := h.BigInt()
	oracle, err := core.NewKGCFromMaster(master)
	if err != nil {
		return summary{}, err
	}
	shares, err := threshold.Split(master, o.t, o.n, nil)
	if err != nil {
		return summary{}, err
	}
	crashes := fault.Rotation(o.n, o.chaosPeriod, o.chaosDown, o.chaosFor)
	injector := kgcd.NewInjector(crashes)
	cl, err := kgcd.StartCluster(kgcd.ClusterConfig{
		Shares:           shares,
		Combiner:         kgcd.Config{Params: oracle.Params(), T: o.t, RatePerSec: -1},
		SignerMiddleware: injector.Middleware,
	})
	if err != nil {
		return summary{}, fmt.Errorf("self-host: %w", err)
	}
	defer cl.Close()

	// One shared client; enough idle conns that workers reuse connections
	// instead of churning through TIME_WAIT sockets.
	client := kgcd.NewClient(cl.URL, &http.Client{
		Timeout: 10 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        o.concurrency * 2,
			MaxIdleConnsPerHost: o.concurrency * 2,
		},
	})
	ctx := context.Background()

	fmt.Fprintf(out, "kgcload: %d-of-%d kgcd on %s — 1 replica down %v in every %v, for %v, share refresh at half-time\n",
		o.t, o.n, cl.URL, o.chaosDown, o.chaosPeriod, o.chaosFor)
	injector.Start()
	deadline := time.Now().Add(o.chaosFor)

	// The refresh's internal per-replica retry budget is shorter than a
	// down window, so an outer loop keeps re-posting the pinned deltas
	// until the killed replica comes back and the epoch commits.
	refreshed := make(chan error, 1)
	go func() {
		time.Sleep(o.chaosFor / 2)
		var err error
		for attempt := 0; attempt < 8; attempt++ {
			if _, err = cl.Refresh(ctx); err == nil {
				break
			}
			time.Sleep(time.Second)
		}
		refreshed <- err
	}()

	var latMu sync.Mutex
	var lats []time.Duration
	var reqs, errs atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < o.concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; time.Now().Before(deadline); k++ {
				id := fmt.Sprintf("chaos-node-%d-%d", w, k)
				t0 := time.Now()
				_, err := client.Enroll(ctx, id)
				reqs.Add(1)
				if err != nil {
					errs.Add(1)
					continue
				}
				latMu.Lock()
				lats = append(lats, time.Since(t0))
				latMu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	refreshErr := <-refreshed
	text, err := client.RawMetrics(ctx)
	if err != nil {
		return summary{}, fmt.Errorf("scrape metrics: %w", err)
	}
	shareFailures, err := counter(text, "kgcd_share_failures_total")
	if err != nil {
		return summary{}, err
	}

	sum := summary{
		Requests:      int(reqs.Load()),
		Errors:        int(errs.Load()),
		Kills:         len(crashes),
		ShareFailures: shareFailures,
		Epoch:         cl.Epoch(),
	}
	if len(lats) > 0 {
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		sum.P50 = lats[(len(lats)-1)/2]
		sum.P99 = lats[(len(lats)-1)*99/100]
	}

	// Post-churn oracle: fresh identities must combine to exactly the bytes
	// a single-master KGC would issue — the refresh moved shares, never keys.
	var oracleErr error
	for i := 0; i < o.validate && oracleErr == nil; i++ {
		id := fmt.Sprintf("chaos-oracle-%d", i)
		res, err := client.Enroll(ctx, id)
		switch {
		case err != nil:
			oracleErr = fmt.Errorf("oracle enroll %q: %w", id, err)
		case !bytes.Equal(res.PartialKey.Marshal(), oracle.ExtractPartialPrivateKey(id).Marshal()):
			oracleErr = fmt.Errorf("oracle %q: issued bytes diverge from single-master issuance", id)
		default:
			sum.OracleChecked++
		}
	}

	availability := 0.0
	if sum.Requests > 0 {
		availability = float64(sum.Requests-sum.Errors) / float64(sum.Requests)
	}
	fmt.Fprintf(out, "kgcload: %d reqs  avail %.4f  p50 %v  p99 %v  kills %d  share failures %d  epoch %d  oracle %d  errors %d\n",
		sum.Requests, availability, sum.P50.Round(time.Microsecond), sum.P99.Round(time.Microsecond),
		sum.Kills, sum.ShareFailures, sum.Epoch, sum.OracleChecked, sum.Errors)

	switch {
	case sum.Kills == 0:
		return sum, fmt.Errorf("the schedule never killed a replica (-chaosfor %v)", o.chaosFor)
	case sum.Requests == 0:
		return sum, fmt.Errorf("no traffic during the drill (-chaosfor %v)", o.chaosFor)
	case sum.ShareFailures == 0:
		return sum, fmt.Errorf("no kill reached the fan-out: the combiner counted 0 failed share requests")
	case sum.Errors > 0:
		return sum, fmt.Errorf("%d of %d enrollments failed under below-quorum faults", sum.Errors, sum.Requests)
	case refreshErr != nil:
		return sum, fmt.Errorf("share refresh never committed: %w", refreshErr)
	case sum.Epoch < 1:
		return sum, fmt.Errorf("share refresh reported success but the epoch is still 0")
	case oracleErr != nil:
		return sum, oracleErr
	}
	return sum, nil
}

// counter reads one unlabeled counter from a Prometheus text exposition.
func counter(text, name string) (int, error) {
	for _, line := range strings.Split(text, "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			return strconv.Atoi(v)
		}
	}
	return 0, fmt.Errorf("metrics: no %s counter", name)
}
