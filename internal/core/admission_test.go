package core_test

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"qosneg/internal/admission"
	"qosneg/internal/core"
	"qosneg/internal/network"
	"qosneg/internal/qos"
	"qosneg/internal/telemetry"
	"qosneg/internal/testbed"
	"qosneg/internal/transport"
)

// TestAdmissionShed: Options.Admission gates negotiation and renegotiation
// before step 1. Past a pinned one-slot controller both answer
// FAILEDTRYLATER with the Shed flag and the controller's hint, and a shed
// renegotiation leaves its session reserved. Each shed is one request, one
// shed and one FAILEDTRYLATER, in Stats and in the outcome series alike,
// and the controller gated each request exactly once.
func TestAdmissionShed(t *testing.T) {
	reg := telemetry.NewRegistry()
	opts := core.DefaultOptions()
	opts.Metrics = reg
	opts.Admission = admission.New(admission.Config{MaxInFlight: 1, MinInFlight: 1})
	ctrl := opts.Admission
	bed := testbed.MustNew(testbed.Spec{Options: &opts})
	if _, err := bed.AddNewsArticle("news-1", "Election night", 2*time.Minute); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	held, err := bed.Manager.NegotiateContext(ctx, bed.Client(1), "news-1", chaosProfile())
	if err != nil || held.Session == nil {
		t.Fatalf("admitted negotiation: %v %v", held.Status, err)
	}
	release, _, ok := ctrl.Admit()
	if !ok {
		t.Fatal("could not pin the controller's only slot")
	}
	defer release()

	shedWant := func(res core.Result, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		want := core.Result{
			Status:     core.FailedTryLater,
			Reason:     "admission control: manager overloaded",
			RetryAfter: ctrl.RetryHint(),
			Shed:       true,
		}
		if !reflect.DeepEqual(res, want) || res.RetryAfter <= 0 {
			t.Fatalf("shed result = %+v, want %+v", res, want)
		}
	}
	shedWant(bed.Manager.NegotiateContext(ctx, bed.Client(1), "news-1", chaosProfile()))
	shedWant(bed.Manager.RenegotiateContext(ctx, held.Session.ID, chaosProfile()))
	if st := held.Session.State(); st != core.Reserved {
		t.Fatalf("session is %v after a shed renegotiation, want Reserved", st)
	}

	st := bed.Manager.Stats()
	if st.Requests != 3 || st.AdmissionSheds != 2 || st.FailedTryLater != 2 {
		t.Fatalf("stats = requests %d, sheds %d, try-later %d; want 3, 2, 2", st.Requests, st.AdmissionSheds, st.FailedTryLater)
	}
	if got := reg.Snapshot().CounterValue(core.MetricNegotiations, core.FailedTryLater.String()); got != 2 {
		t.Fatalf("%s{status=FAILEDTRYLATER} = %d, want 2", core.MetricNegotiations, got)
	}
	if as := ctrl.Stats(); as.Sheds != 2 || as.Admitted != 2 {
		t.Fatalf("controller shed %d and admitted %d, want 2 and 2: a request must be gated exactly once", as.Sheds, as.Admitted)
	}
}

// cancelingTransport cancels the negotiation's context from inside Connect,
// once cancel is set: the run stops at its next stage boundary.
type cancelingTransport struct {
	core.Transport
	cancel context.CancelFunc
}

func (c *cancelingTransport) Connect(src, dst network.NodeID, q qos.NetworkQoS) (transport.Connection, error) {
	if c.cancel != nil {
		c.cancel()
	}
	return c.Transport.Connect(src, dst, q)
}

// TestCanceledNegotiationIsNoRequest: a negotiation canceled mid-commitment
// ends in no outcome, so it is no request either. Stats.Requests equals the
// outcome series' sum, which is what `qosctl stats` prints as requests, and
// the canceled run leaves nothing reserved.
func TestCanceledNegotiationIsNoRequest(t *testing.T) {
	reg := telemetry.NewRegistry()
	opts := core.DefaultOptions()
	opts.Metrics = reg
	bed := testbed.MustNew(testbed.Spec{})
	if _, err := bed.AddNewsArticle("news-1", "Election night", 2*time.Minute); err != nil {
		t.Fatal(err)
	}
	ts := &cancelingTransport{Transport: bed.Transit}
	man := core.NewManager(bed.Registry, ts, bed.Pricing, opts)
	for _, id := range bed.ServerIDs() {
		man.AddServer(bed.Servers[id], network.NodeID(id))
	}
	res, err := man.NegotiateContext(context.Background(), bed.Client(1), "news-1", chaosProfile())
	if err != nil || res.Session == nil {
		t.Fatalf("negotiation: %v %v", res.Status, err)
	}
	if err := man.Reject(res.Session.ID); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	ts.cancel = cancel
	if _, err := man.NegotiateContext(ctx, bed.Client(1), "news-1", chaosProfile()); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled negotiation returned %v, want context.Canceled", err)
	}
	st := man.Stats()
	if outcomes := reg.Snapshot().CounterValue(core.MetricNegotiations, ""); st.Requests != int(outcomes) || st.Requests != 1 {
		t.Errorf("Stats.Requests = %d, %s sums to %d; want 1 and 1", st.Requests, core.MetricNegotiations, outcomes)
	}
	if err := bed.Ledger.CheckEmpty(); err != nil {
		t.Error(err)
	}
}
