// KGC service: enrolls a field node over the network — the deployment
// shape a real CPS fleet uses (KGC at the depot, nodes enrolling before
// going into the field). The KGC is a threshold 2-of-3 kgcd deployment
// (internal/kgcd): each signer replica holds one Shamir share of the master
// secret, so no single server can forge partial keys, and the node talks to
// the combiner through the kgcd client library.
//
// The client validates the partial key against the received parameters
// (catching a tampered or misdirected response), completes its
// certificateless keypair locally — the KGC never sees x — then signs a
// message and verifies it as a third party would.
//
//	go run ./examples/kgc-service
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"mccls"
	"mccls/internal/kgcd"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// All-in-one 2-of-3 on loopback: three signer replicas (each holding
	// one Shamir share) plus the combiner, all real HTTP listeners.
	cluster, err := kgcd.StartCluster(kgcd.ClusterConfig{T: 2, N: 3})
	if err != nil {
		return err
	}
	defer cluster.Close()
	fmt.Printf("threshold KGC: 2-of-3 combiner on %s\n", cluster.URL)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	client := kgcd.NewClient(cluster.URL, nil)

	params, err := client.Params(ctx)
	if err != nil {
		return err
	}
	const id = "pump-station-10"
	res, err := client.Enroll(ctx, id)
	if err != nil {
		return err
	}
	fmt.Printf("node: enrolled %q via threshold issuance (cached=%v)\n", id, res.Cached)
	return completeAndSign(params, res.PartialKey, id)
}

// completeAndSign is the field node's half: complete the keypair (which
// validates the partial key — a man-in-the-middle swapping parameters or
// key is caught right here), sign telemetry, verify as a third party.
func completeAndSign(params *mccls.Params, ppk *mccls.PartialPrivateKey, id string) error {
	sk, err := mccls.GenerateKeyPair(params, ppk, nil)
	if err != nil {
		return fmt.Errorf("enrollment rejected: %w", err)
	}
	fmt.Printf("node: enrolled as %q; public key is %d bytes, certificate-free\n",
		id, len(sk.Public().Marshal()))

	msg := []byte("flow=120L/s pressure=2.8bar")
	sig, err := mccls.Sign(params, sk, msg, nil)
	if err != nil {
		return err
	}
	if err := mccls.NewVerifier(params).Verify(sk.Public(), msg, sig); err != nil {
		return err
	}
	fmt.Println("node: signed telemetry verified by a third party ✓")
	return nil
}
