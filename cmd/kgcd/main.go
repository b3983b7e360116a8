// Command kgcd runs the KGC enrollment service (internal/kgcd): a
// threshold (t-of-n) deployment where each signer replica holds one Shamir
// share of the master secret and a combiner aggregates any t key shares
// into partial private keys over JSON/HTTP.
//
// Three roles:
//
//	kgcd                                  all-in-one t-of-n on loopback
//	kgcd -role signer   -share s.hex ...  one share-holder replica
//	kgcd -role combiner -signers a,b,c .. the public front-end
//
// All-in-one shards a master key (fresh, or -master file) and runs the n
// replicas plus the combiner in one process — each replica on its own
// listener, so the traffic is real HTTP. -sharedir dumps the very shares
// and parameters it runs, so the same deployment can later be split across
// machines:
//
//	kgcd -t 2 -n 3 -listen 127.0.0.1:7600 -sharedir ./shares
//	kgcd -role signer -params ./shares/params.pub -share ./shares/share-1.hex -listen :7611
//	kgcd -role combiner -params ./shares/params.pub -t 2 \
//	     -signers http://a:7611,http://b:7612,http://c:7613 -listen :7600
package main

import (
	"context"
	"encoding/hex"
	"flag"
	"fmt"
	"math/big"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"mccls/internal/bn254"
	"mccls/internal/core"
	"mccls/internal/kgcd"
	"mccls/internal/threshold"
)

func main() {
	// SIGINT/SIGTERM start a graceful drain instead of dropping in-flight
	// enrollments on the floor; a second signal kills the process hard.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "kgcd:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("kgcd", flag.ContinueOnError)
	role := fs.String("role", "all", "all | signer | combiner")
	listen := fs.String("listen", "127.0.0.1:7600", "address to serve on")
	t := fs.Int("t", 2, "quorum: shares needed to issue a key")
	n := fs.Int("n", 3, "total signer replicas (all-in-one)")
	masterPath := fs.String("master", "", "hex master-key file (all-in-one; empty draws a fresh key)")
	shareDir := fs.String("sharedir", "", "directory to dump shares + params into (all-in-one)")
	sharePath := fs.String("share", "", "hex share file (signer role)")
	paramsPath := fs.String("params", "", "hex public-parameters file (signer/combiner roles)")
	signers := fs.String("signers", "", "comma-separated replica base URLs (combiner role)")
	cacheSize := fs.Int("cache", kgcd.DefaultCacheSize, "partial-key LRU capacity")
	rate := fs.Float64("rate", kgcd.DefaultRatePerSec, "per-identity enrollments/sec (negative disables)")
	burst := fs.Int("burst", kgcd.DefaultRateBurst, "per-identity burst size")
	timeout := fs.Duration("timeout", kgcd.DefaultRequestTimeout, "per-enrollment fan-out timeout")
	grace := fs.Duration("grace", 10*time.Second, "drain budget for graceful shutdown on SIGINT/SIGTERM")
	if err := fs.Parse(args); err != nil {
		return err
	}
	combCfg := kgcd.Config{
		CacheSize:      *cacheSize,
		RatePerSec:     *rate,
		RateBurst:      *burst,
		RequestTimeout: *timeout,
	}
	switch *role {
	case "all":
		return runAll(ctx, *listen, *t, *n, *masterPath, *shareDir, *grace, combCfg)
	case "signer":
		return runSigner(ctx, *listen, *sharePath, *paramsPath, *grace)
	case "combiner":
		return runCombiner(ctx, *listen, *t, *paramsPath, *signers, *grace, combCfg)
	default:
		return fmt.Errorf("unknown role %q (want all, signer or combiner)", *role)
	}
}

func readHexFile(path string) ([]byte, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return hex.DecodeString(strings.TrimSpace(string(raw)))
}

func writeHexFile(path string, data []byte) error {
	return os.WriteFile(path, []byte(hex.EncodeToString(data)+"\n"), 0o600)
}

func runAll(ctx context.Context, listen string, t, n int, masterPath, shareDir string, grace time.Duration, combCfg kgcd.Config) error {
	var master *big.Int
	if masterPath != "" {
		raw, err := readHexFile(masterPath)
		if err != nil {
			return fmt.Errorf("read master: %w", err)
		}
		master = new(big.Int).SetBytes(raw)
	} else {
		var err error
		if master, err = bn254.RandomScalar(nil); err != nil {
			return err
		}
	}
	kgc, err := core.NewKGCFromMaster(master)
	if err != nil {
		return err
	}
	shares, err := threshold.Split(master, t, n, nil)
	if err != nil {
		return err
	}
	if shareDir != "" {
		// Dump the deployment material before serving, so the operator can
		// move replicas onto separate machines with the same shares.
		if err := os.MkdirAll(shareDir, 0o700); err != nil {
			return err
		}
		if err := writeHexFile(filepath.Join(shareDir, "params.pub"), kgc.Params().Marshal()); err != nil {
			return err
		}
		for _, sh := range shares {
			name := fmt.Sprintf("share-%d.hex", sh.Index)
			if err := writeHexFile(filepath.Join(shareDir, name), sh.Marshal()); err != nil {
				return err
			}
		}
		fmt.Printf("kgcd: wrote params + %d shares to %s\n", n, shareDir)
	}
	combCfg.Params, combCfg.T = kgc.Params(), t
	cl, err := kgcd.StartCluster(kgcd.ClusterConfig{Shares: shares, ListenAddr: listen, Combiner: combCfg})
	if err != nil {
		return err
	}
	defer cl.Close()
	fmt.Printf("kgcd: %d-of-%d combiner on %s\n", t, n, cl.URL)
	for i, u := range cl.SignerURLs {
		fmt.Printf("kgcd: signer %d on %s\n", i+1, u)
	}
	<-ctx.Done() // serve until signaled
	fmt.Printf("kgcd: draining (grace %v)\n", grace)
	drainCtx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	return cl.Shutdown(drainCtx)
}

func runSigner(ctx context.Context, listen, sharePath, paramsPath string, grace time.Duration) error {
	if sharePath == "" || paramsPath == "" {
		return fmt.Errorf("signer role needs -share and -params")
	}
	shareRaw, err := readHexFile(sharePath)
	if err != nil {
		return fmt.Errorf("read share: %w", err)
	}
	share, err := threshold.UnmarshalShare(shareRaw)
	if err != nil {
		return err
	}
	params, err := loadParams(paramsPath)
	if err != nil {
		return err
	}
	signer, err := threshold.NewSigner(params, share)
	if err != nil {
		return err
	}
	return serve(ctx, listen, kgcd.NewSignerHandler(signer, 0),
		fmt.Sprintf("signer %d", signer.Index()), grace)
}

func runCombiner(ctx context.Context, listen string, t int, paramsPath, signers string, grace time.Duration, combCfg kgcd.Config) error {
	if paramsPath == "" || signers == "" {
		return fmt.Errorf("combiner role needs -params and -signers")
	}
	params, err := loadParams(paramsPath)
	if err != nil {
		return err
	}
	combCfg.Params = params
	combCfg.T = t
	combCfg.SignerURLs = strings.Split(signers, ",")
	srv, err := kgcd.NewServer(combCfg)
	if err != nil {
		return err
	}
	return serve(ctx, listen, srv.Handler(),
		fmt.Sprintf("%d-of-%d combiner", t, len(combCfg.SignerURLs)), grace)
}

func loadParams(path string) (*core.Params, error) {
	raw, err := readHexFile(path)
	if err != nil {
		return nil, fmt.Errorf("read params: %w", err)
	}
	return core.UnmarshalParams(raw)
}

// serve binds the listener and serves with the standard kgcd server
// timeouts until the context is canceled, then drains in-flight requests
// within the grace budget.
func serve(ctx context.Context, listen string, h http.Handler, what string, grace time.Duration) error {
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return err
	}
	fmt.Printf("kgcd: %s on http://%s\n", what, ln.Addr())
	srv := kgcd.NewHTTPServer(h)
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	fmt.Printf("kgcd: %s draining (grace %v)\n", what, grace)
	drainCtx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	return srv.Shutdown(drainCtx)
}
