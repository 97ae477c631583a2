package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"qosneg/internal/client"
	"qosneg/internal/cost"
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
// Canceling ctx aborts the pipeline between stages and rolls back any
// partially committed resources; the context's error is returned.
func (m *Manager) NegotiateContext(ctx context.Context, mach client.Machine, docID media.DocumentID, u profile.UserProfile) (Result, error) {
	doc, docGen, err := m.registry.Snapshot(docID)
	if err != nil {
		return Result{}, err
	}
	out, err := m.runProcedure(ctx, mach, doc, docGen, u)
	if err != nil {
		return Result{}, err
	}
	if !out.status.Reserved() {
		return out.refusal(), nil
	}
	sess := &Session{
		Machine:      mach,
		Document:     doc.ID,
		Profile:      u,
		Current:      out.chosen,
		ChoicePeriod: m.choicePeriodFor(u),
		ranked:       out.ranked,
		state:        Reserved,
		commit:       out.commit,
	}
	if m.opts.Metrics != nil || m.opts.Tracer != nil {
		sess.reservedAt = m.clk.Now()
	}
	m.sessMu.Lock()
	if m.opts.Shard != nil {
		sess.ID = m.opts.Shard.NextSessionID()
	} else {
		m.nextID++
		sess.ID = m.nextID
	}
	m.sessions[sess.ID] = sess
	m.sessMu.Unlock()
	uo := out.chosen.UserOffer()
	return Result{Status: out.status, Offer: &uo, Session: sess}, nil
}

// choicePeriodFor resolves the confirmation window for a profile.
func (m *Manager) choicePeriodFor(u profile.UserProfile) time.Duration {
	if c := u.Desired.Time.ChoicePeriod; c > 0 {
		return c
	}
	return DefaultChoicePeriod
}

// runProcedure executes steps 1–5 of Section 4 as one counted request, for
// negotiation and renegotiation alike: it books the request, times the run
// into the negotiation-latency histogram and counts its outcome. A run that
// ends in an error (a canceled ctx) is booked but neither timed nor
// counted. docGen is the registry generation doc was snapshotted at; the
// offer cache validates entries against it.
func (m *Manager) runProcedure(ctx context.Context, mach client.Machine, doc media.Document, docGen uint64, u profile.UserProfile) (negOutcome, error) {
	m.count.requests.Add(1)
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
func (m *Manager) runSteps(ctx context.Context, mach client.Machine, doc media.Document, docGen uint64, u profile.UserProfile) (negOutcome, error) {
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
	c, err := m.commitFirst(ctx, &mach, &doc, &u, &ranked, "", nil, m.opts.Policy, "negotiate")
	if err != nil {
		return negOutcome{}, err
	}
	if c.ok {
		status := FailedWithOffer
		if c.chosen.Acceptable(&u) {
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

// candidateSet resolves the step-2 candidate set for one negotiation: a
// memoized set when the cache holds a coherent entry for (document, machine
// class, guarantee, exclusion world) at the caller's generations, a fresh
// Filter pass otherwise, stored for the next request under the generations
// it was computed from. Every input of the filter/mapping/pricing
// computation is either part of the cache key or generation-checked, so a
// hit is byte-equivalent to recomputing.
func (m *Manager) candidateSet(ctx context.Context, doc media.Document, docGen uint64, mach client.Machine, g cost.Guarantee, exclude func(media.Variant) bool, exclHash uint64) (offer.Candidates, []offer.SystemOffer, error) {
	pricing, pricingGen := m.pricingSnapshot()
	if m.cache == nil {
		cands, err := offer.Filter(ctx, doc, mach, pricing, g, 0, exclude)
		return cands, nil, err
	}
	key := offercache.Key{Doc: doc.ID, Machine: mach.Fingerprint(), Guarantee: g, Exclusion: exclHash}
	cands, offers, out := m.cache.Lookup(key, docGen, pricingGen)
	if out == offercache.Hit {
		return cands, offers, nil
	}
	cands, err := offer.Filter(ctx, doc, mach, pricing, g, 0, exclude)
	if err != nil {
		return nil, nil, err
	}
	// Memoize the built product too when it is small enough to hold: hits
	// then skip per-offer materialization entirely, not just the filter.
	var offers2 []offer.SystemOffer
	if cands.Offers() <= offercache.MaterializeLimit {
		if offers2, err = offer.FromCandidates(doc, cands, m.opts.MaxOffers); err != nil {
			return nil, nil, err
		}
	}
	m.cache.Store(key, docGen, pricingGen, cands, offers2)
	return cands, offers2, nil
}

// classify runs steps 2–4: enumeration, classification parameters and
// classification, as one streaming pass over the (possibly memoized)
// candidate set that keeps only the top-K offers. An exclude filter (the
// quarantine set) drops variants on unhealthy servers before the product is
// built, so the pipeline exploits the paper's multi-server variant
// redundancy instead of burning commit attempts on dead replicas; exclHash
// names that exclusion world in the cache key.
func (m *Manager) classify(ctx context.Context, doc media.Document, docGen uint64, mach client.Machine, u profile.UserProfile, exclude func(media.Variant) bool, exclHash uint64, t *stepTimer) (offer.Classified, error) {
	cands, prebuilt, err := m.candidateSet(ctx, doc, docGen, mach, u.Desired.Cost.Guarantee, exclude, exclHash)
	if err != nil {
		t.lap(telemetry.StepCompatibilityCheck)
		return offer.Classified{}, err
	}
	ranked, err := offer.TopKFromCandidates(ctx, doc, cands, u, offer.PipelineOptions{
		MaxOffers: m.opts.MaxOffers,
		TopK:      DefaultTopK,
		Orderer:   m.opts.Classifier,
		Prebuilt:  prebuilt,
	})
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
