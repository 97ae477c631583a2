package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"qosneg/internal/client"
	"qosneg/internal/media"
	"qosneg/internal/offer"
	"qosneg/internal/offercache"
	"qosneg/internal/profile"
	"qosneg/internal/telemetry"
)

// negOutcome is the result of the session-independent part of the
// negotiation procedure: steps 1–5 without session bookkeeping.
type negOutcome struct {
	status     NegotiationStatus
	reason     string
	violations []client.LocalViolation
	localOffer *profile.MMProfile
	// ranked is the classified offer list (steps 3–4), bounded by
	// DefaultTopK; set whenever enumeration succeeded.
	ranked offer.Classified
	// chosen and commit are set when resources were reserved.
	chosen offer.Ranked
	commit commitment
	// retryAfter is the FAILEDTRYLATER hint.
	retryAfter time.Duration
}

// refusal renders an outcome that reserved nothing as the caller's Result.
func (o negOutcome) refusal() Result {
	return Result{Status: o.status, Offer: o.localOffer, Violations: o.violations, Reason: o.reason, RetryAfter: o.retryAfter}
}

// NegotiateContext runs the negotiation procedure of Section 4 for the
// given client machine, document and user profile. The returned Result
// carries the negotiation status and, when resources were reserved, the
// session the user must confirm within the choice period.
//
// Options.Admission gates the request first; a shed is answered without
// running a step. Canceling ctx aborts the pipeline between stages and rolls
// back any partially committed resources; the context's error is returned.
func (m *Manager) NegotiateContext(ctx context.Context, mach client.Machine, docID media.DocumentID, u profile.UserProfile) (Result, error) {
	release, shed, ok := m.admit()
	if !ok {
		return shed, nil
	}
	if release != nil {
		defer release()
	}
	doc, docGen, err := m.registry.Snapshot(docID)
	if err != nil {
		return Result{}, err
	}
	out, err := m.runProcedure(ctx, &mach, &doc, docGen, &u)
	if err != nil {
		return Result{}, err
	}
	if !out.status.Reserved() {
		return out.refusal(), nil
	}
	sess := &Session{
		Machine:      mach,
		Document:     doc.ID,
		Current:      out.chosen,
		ChoicePeriod: m.choicePeriodFor(&u),
		ranked:       out.ranked,
		terms:        termsOf(&u),
		state:        Reserved,
		commit:       out.commit,
	}
	if m.opts.Metrics != nil || m.opts.Tracer != nil {
		sess.reservedAt = m.clk.Now()
	}
	m.sessMu.Lock()
	m.nextID++
	sess.ID = m.nextID
	m.sessions[sess.ID] = sess
	m.sessMu.Unlock()
	uo := out.chosen.UserOffer()
	return Result{Status: out.status, Offer: &uo, Session: sess}, nil
}

// admit gates one negotiation-class request through Options.Admission. A
// refused request is answered with refusal — FAILEDTRYLATER, the
// controller's retry hint and Shed — which the controller counts (Stats
// reads its sheds); an admitted one must call release, when non-nil, once
// it is done.
func (m *Manager) admit() (release func(), refusal Result, ok bool) {
	release, retry, ok := m.opts.Admission.Admit()
	if !ok {
		return nil, Result{
			Status:     FailedTryLater,
			Reason:     "admission control: manager overloaded",
			RetryAfter: retry,
			Shed:       true,
		}, false
	}
	return release, Result{}, true
}

// choicePeriodFor resolves the confirmation window for a profile.
func (m *Manager) choicePeriodFor(u *profile.UserProfile) time.Duration {
	if c := u.Desired.Time.ChoicePeriod; c > 0 {
		return c
	}
	return DefaultChoicePeriod
}

// runProcedure executes steps 1–5 of Section 4 as one counted request, for
// negotiation and renegotiation alike. It times the run into the
// negotiation-latency histogram and counts its outcome, which is what
// Stats.Requests sums; a run that ends in an error (a canceled ctx) is
// neither timed nor counted. docGen is the registry generation doc was
// snapshotted at, which the offer cache validates entries against. mach,
// doc and u are read, never written.
func (m *Manager) runProcedure(ctx context.Context, mach *client.Machine, doc *media.Document, docGen uint64, u *profile.UserProfile) (negOutcome, error) {
	var begin time.Time
	if m.opts.Metrics != nil {
		begin = m.clk.Now()
	}
	out, err := m.runSteps(ctx, mach, doc, docGen, u)
	if err != nil {
		return negOutcome{}, err
	}
	if m.opts.Metrics != nil {
		m.met.negSeconds.Observe(m.clk.Now().Sub(begin))
	}
	m.count.outcomes[out.status].Add(1)
	return out, nil
}

// runSteps is the uncounted body of runProcedure.
func (m *Manager) runSteps(ctx context.Context, mach *client.Machine, doc *media.Document, docGen uint64, u *profile.UserProfile) (negOutcome, error) {
	t := m.stepTimer()
	// Step 1: static local negotiation.
	if violations := mach.CheckLocal(u.Desired); len(violations) > 0 {
		local := mach.LocalOffer(u.Desired)
		t.lap(telemetry.StepLocalNegotiation)
		if m.opts.Tracer != nil {
			detail := violations[0].String()
			m.span(telemetry.Event{Step: telemetry.StepLocalNegotiation, Status: "failed", Detail: detail})
		}
		return negOutcome{
			status:     FailedWithLocalOffer,
			localOffer: &local,
			violations: violations,
			reason:     fmt.Sprintf("client machine cannot render the requested QoS: %v", violations[0]),
		}, nil
	}
	t.lap(telemetry.StepLocalNegotiation)

	// Steps 2–4: static compatibility checking, offer enumeration,
	// classification parameters and classification, in one streaming pass.
	// Variants on quarantined servers are excluded up front: the breaker
	// already has evidence they cannot commit.
	exclude, quarRemain, exclHash := m.servers.exclusion(m.clk)
	ranked, err := m.classify(ctx, doc, docGen, mach, u, exclude, exclHash, &t)
	if err != nil {
		var nv *offer.NoVariantError
		if errors.As(err, &nv) {
			if nv.Excluded {
				// Decodable variants exist but every one lives on a
				// quarantined server: a transient shortage, not a
				// structural mismatch.
				if m.opts.Tracer != nil {
					detail := fmt.Sprintf("%s (all variants quarantined)", nv.Monomedia)
					m.span(telemetry.Event{Step: telemetry.StepClassification, Status: "no-variant", Detail: detail})
				}
				return negOutcome{
					status:     FailedTryLater,
					retryAfter: maxDuration(quarRemain, m.opts.Health.retryAfter()),
					reason:     fmt.Sprintf("every decodable variant of %s is on a quarantined server", nv.Monomedia),
				}, nil
			}
			m.span(telemetry.Event{Step: telemetry.StepClassification, Status: "no-variant", Detail: string(nv.Monomedia)})
			return negOutcome{
				status: FailedWithoutOffer,
				reason: fmt.Sprintf("no feasible physical configuration: %v", err),
			}, nil
		}
		return negOutcome{}, err
	}
	// Step 5: resource commitment, acceptable set first.
	tm := termsOf(u)
	c, err := m.commitFirst(ctx, mach, doc, tm, &ranked, nil, nil, m.opts.Policy, "negotiate")
	if err != nil {
		return negOutcome{}, err
	}
	if c.ok {
		status := FailedWithOffer
		if c.chosen.Acceptable(tm.budget) {
			status = Succeeded
		}
		if m.opts.Policy != nil {
			// Chosen rank in classical order (the regret-proxy pair: a good
			// policy commits at low rank with few failed attempts).
			m.met.policyChosenRank(c.rank)
			m.met.policyWasted.Add(uint64(c.downs + c.capacities + c.constraints + c.skipped))
		}
		t.lap(telemetry.StepCommitment)
		if m.opts.Tracer != nil {
			m.span(telemetry.Event{Step: telemetry.StepCommitment, Offer: c.chosen.Key(), Status: status.String()})
		}
		return negOutcome{status: status, ranked: ranked, chosen: c.chosen, commit: c.commit}, nil
	}
	t.lap(telemetry.StepCommitment)

	// Every feasible offer failed commitment. If each attempt hit a hard
	// profile constraint (start delay, sync tolerance), no retry can help:
	// there is no supportable configuration for this profile at all. Any
	// shortage or dead server, by contrast, is transient — FAILEDTRYLATER
	// with an honest retry hint.
	if m.opts.Tracer != nil {
		detail := fmt.Sprintf("%d feasible offers (%d server-down, %d capacity, %d constraint, %d skipped)",
			ranked.Len(), c.downs, c.capacities, c.constraints, c.skipped)
		m.span(telemetry.Event{Step: telemetry.StepCommitment, Status: "exhausted", Detail: detail})
	}
	if c.constraints > 0 && c.downs+c.capacities+c.skipped == 0 {
		return negOutcome{
			status: FailedWithoutOffer,
			ranked: ranked,
			reason: fmt.Sprintf("all %d feasible offers violate hard constraints of the profile", ranked.Len()),
		}, nil
	}
	return negOutcome{
		status:     FailedTryLater,
		ranked:     ranked,
		retryAfter: maxDuration(c.retryAfter, maxDuration(quarRemain, m.opts.Health.retryAfter())),
		reason: fmt.Sprintf("no resources for any of %d feasible offers (%d server-down, %d capacity, %d constraint)",
			ranked.Len(), c.downs+c.skipped, c.capacities, c.constraints),
	}, nil
}

// classify runs steps 2–4: static compatibility checking, classification
// parameters and classification, as one streaming pass that builds only the
// top-K offers. An exclude filter (the quarantine set) drops variants on
// unhealthy servers before the product is built, so the pipeline exploits
// the paper's multi-server variant redundancy instead of burning commit
// attempts on dead replicas; exclHash names that exclusion world in the
// cache key.
//
// With the offer cache on, the step-2 candidate set comes from the entry
// for (document, machine class, guarantee, exclusion world) when it is
// coherent at the caller's generations. A hit whose entry also memoizes the
// classification for u's rank digest returns that, sorted and shared,
// without scoring anything. A hit on an entry with an empty ranking slot
// classifies the entry's candidates and memoizes the result there; a hit
// whose slots hold other profiles' rankings classifies and keeps its
// result to itself; a miss filters afresh and stores the candidates only,
// so an entry no one reuses carries no ranking. A classification the memo
// does not serve writes the offers it keeps into slots of its own.
// Every input of steps 2–4 is part of the cache key, generation-checked, or
// digested, so a hit is equivalent to recomputing.
func (m *Manager) classify(ctx context.Context, doc *media.Document, docGen uint64, mach *client.Machine, u *profile.UserProfile, exclude func(media.Variant) bool, exclHash uint64, t *stepTimer) (offer.Classified, error) {
	var (
		key    offercache.Key
		digest uint64
		set    offercache.Result
		out    = offercache.Miss
	)
	pricing, pricingGen := m.pricingSnapshot()
	if m.cache != nil {
		key = offercache.Key{Doc: doc.ID, Machine: mach.Fingerprint(), Guarantee: u.Desired.Cost.Guarantee, Exclusion: exclHash}
		digest = u.RankDigest()
		set, out = m.cache.LookupRanking(key, docGen, pricingGen, digest)
		if set.Ranked.Len() > 0 {
			// The scoring pass a memo skips is also where a canceled ctx
			// was noticed; it still is.
			t.lap(telemetry.StepClassification)
			return set.Ranked, ctx.Err()
		}
	}
	if out != offercache.Hit {
		var err error
		if set.Cands, err = offer.Filter(ctx, *doc, *mach, pricing, u.Desired.Cost.Guarantee, 0, exclude); err != nil {
			t.lap(telemetry.StepCompatibilityCheck)
			return offer.Classified{}, err
		}
		if m.cache != nil {
			m.cache.Store(key, docGen, pricingGen, set.Cands, nil)
		}
	}
	ranked, err := offer.TopKFromCandidates(ctx, *doc, set.Cands, *u, offer.PipelineOptions{
		MaxOffers: m.opts.MaxOffers,
		TopK:      DefaultTopK,
		Orderer:   m.opts.Classifier,
	})
	if err == nil && set.Vacant {
		m.cache.StoreRanking(key, docGen, pricingGen, digest, &ranked)
	}
	// The fused pipeline performs steps 2-4 in one streaming pass, so a
	// single classification lap covers compatibility checking,
	// classification parameters and classification.
	t.lap(telemetry.StepClassification)
	return ranked, err
}

// maxDuration returns the larger duration.
func maxDuration(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}
