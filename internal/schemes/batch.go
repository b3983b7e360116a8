package schemes

import (
	"errors"
	"fmt"
	"math/big"

	"mccls/internal/batch"
	"mccls/internal/bn254"
	"mccls/internal/core"
)

// BatchItem is one signature to check in a batch: the claimed identity and
// public key alongside the message and the opaque signature bytes, exactly
// as System.Verify takes them.
type BatchItem struct {
	ID        string
	PublicKey []byte
	Msg       []byte
	Sig       []byte
}

// BatchSystem is implemented by systems whose verification equation
// aggregates across signatures — McCLS (single-pairing structure inherited
// from YCK) and YHG (its e(P_pub, Q_ID) factor folds across a batch). AP
// and ZWXF pair signature components with message-dependent G2 points and
// do not batch. All batch implementations route through the shared
// internal/batch engine: chunked aggregate checks, randomized 128-bit
// weights, and bisection that reports offending indices via *batch.Error
// (unwrapping to ErrVerifyFailed).
type BatchSystem interface {
	System
	BatchVerify(items []BatchItem) error
}

// translateBatchErr maps an underlying scheme's batch rejection onto the
// package's shared sentinels, preserving the offender list.
func translateBatchErr(err error) error {
	if err == nil {
		return nil
	}
	var be *batch.Error
	if errors.As(err, &be) {
		return &batch.Error{Bad: be.Bad, Cause: ErrVerifyFailed}
	}
	return fmt.Errorf("%w: %v", ErrVerifyFailed, err)
}

// BatchVerify checks a multi-signer McCLS batch through the core engine:
// one lockstep multi-pairing per chunk with per-identity G2 grouping.
func (sys *mcclsSystem) BatchVerify(items []BatchItem) error {
	n := len(items)
	pks := make([]*core.PublicKey, n)
	msgs := make([][]byte, n)
	sigs := make([]*core.Signature, n)
	for i, it := range items {
		pkBytes := make([]byte, 0, 8+len(it.ID)+len(it.PublicKey))
		pkBytes = appendU64(pkBytes, uint64(len(it.ID)))
		pkBytes = append(pkBytes, it.ID...)
		pkBytes = append(pkBytes, it.PublicKey...)
		pk, err := core.UnmarshalPublicKey(pkBytes)
		if err != nil {
			return fmt.Errorf("%w: item %d: %v", ErrMalformed, i, err)
		}
		sig, err := core.UnmarshalSignature(it.Sig)
		if err != nil {
			return fmt.Errorf("%w: item %d: %v", ErrMalformed, i, err)
		}
		pks[i], msgs[i], sigs[i] = pk, it.Msg, sig
	}
	return translateBatchErr(sys.vf.Batch(core.BatchOptions{}).VerifyMulti(pks, msgs, sigs))
}

// BatchVerify checks a multi-signer YHG batch. The per-signature equation
// e(P, Vᵢ) = e(P_pub, Q_IDᵢ)·e(Uᵢ + hᵢ·P_IDᵢ, Tᵢ) aggregates, with random
// 128-bit weights ρᵢ, into
//
//	e(-P, Σ ρᵢ·Vᵢ) · e(P_pub, Σ_ID (Σᵢ∈ID ρᵢ)·Q_ID) · Π_T e(Σᵢ ρᵢ·(Uᵢ + hᵢ·P_IDᵢ), T) = 1
//
// — 2 + (#distinct keys) pairings per chunk instead of 2 per signature,
// evaluated as one lockstep multi-pairing.
func (sys *yhgSystem) BatchVerify(items []BatchItem) error {
	n := len(items)
	if n == 0 {
		return nil
	}
	w, err := batch.NewWeights(nil)
	if err != nil {
		return fmt.Errorf("schemes: %w", err)
	}
	type yhgPrep struct {
		groupKey string    // identity ‖ P_ID — one T per key
		a        *bn254.G1 // U + h·P_ID
		v        *bn254.G2
		rho      *big.Int
	}
	prep := make([]yhgPrep, n)
	qByID := make(map[string]*bn254.G2)
	tByGroup := make(map[string]*bn254.G2)
	for i, it := range items {
		if len(it.PublicKey) != 64 {
			return fmt.Errorf("%w: item %d: YHG public key wants 64 bytes", ErrMalformed, i)
		}
		if len(it.Sig) != 64+128 {
			return fmt.Errorf("%w: item %d: YHG signature wants 192 bytes", ErrMalformed, i)
		}
		var pid, uPt bn254.G1
		var v bn254.G2
		if err := pid.Unmarshal(it.PublicKey); err != nil {
			return fmt.Errorf("%w: item %d: %v", ErrMalformed, i, err)
		}
		if err := uPt.Unmarshal(it.Sig[:64]); err != nil {
			return fmt.Errorf("%w: item %d: %v", ErrMalformed, i, err)
		}
		if err := v.Unmarshal(it.Sig[64:]); err != nil {
			return fmt.Errorf("%w: item %d: %v", ErrMalformed, i, err)
		}
		h := yhgH(it.Msg, it.ID, &uPt, &pid)
		a := new(bn254.G1).ScalarMult(&pid, h)
		a.Add(a, &uPt)
		gk := it.ID + "\x00" + string(it.PublicKey)
		if _, ok := tByGroup[gk]; !ok {
			tByGroup[gk] = yhgT(it.ID, &pid)
		}
		if _, ok := qByID[it.ID]; !ok {
			qByID[it.ID] = bn254.HashToG2(yhgDomainH1, []byte(it.ID))
		}
		prep[i] = yhgPrep{groupKey: gk, a: a, v: &v, rho: w.At(i)}
	}
	negP := new(bn254.G1).Neg(bn254.G1Generator())
	check := func(idxs []int) bool {
		vSum := bn254.G2Infinity()
		rhoByID := make(map[string]*big.Int)
		idOrder := make([]string, 0, 4)
		aByGroup := make(map[string]*bn254.G1)
		groupOrder := make([]string, 0, 4)
		for _, i := range idxs {
			p := &prep[i]
			vSum.Add(vSum, new(bn254.G2).ScalarMult(p.v, p.rho))
			id := items[i].ID
			if sum, ok := rhoByID[id]; ok {
				sum.Add(sum, p.rho)
			} else {
				rhoByID[id] = new(big.Int).Set(p.rho)
				idOrder = append(idOrder, id)
			}
			wa := new(bn254.G1).ScalarMult(p.a, p.rho)
			if acc, ok := aByGroup[p.groupKey]; ok {
				acc.Add(acc, wa)
			} else {
				aByGroup[p.groupKey] = wa
				groupOrder = append(groupOrder, p.groupKey)
			}
		}
		qSum := bn254.G2Infinity()
		for _, id := range idOrder {
			sum := rhoByID[id].Mod(rhoByID[id], bn254.Order)
			qSum.Add(qSum, new(bn254.G2).ScalarMult(qByID[id], sum))
		}
		ps := []*bn254.G1{negP, sys.ppub}
		qs := []*bn254.G2{vSum, qSum}
		for _, gk := range groupOrder {
			ps = append(ps, aByGroup[gk])
			qs = append(qs, tByGroup[gk])
		}
		return bn254.PairingCheck(ps, qs)
	}
	checkOne := func(i int) bool {
		return sys.Verify(items[i].ID, items[i].PublicKey, items[i].Msg, items[i].Sig) == nil
	}
	bad, err := batch.Reject(n, batch.Options{}, check, checkOne)
	if err != nil {
		return err
	}
	if len(bad) > 0 {
		return &batch.Error{Bad: bad, Cause: ErrVerifyFailed}
	}
	return nil
}
