package main

import (
	"errors"
	"fmt"
	"time"

	"qosneg/internal/cost"
	"qosneg/internal/profile"
)

// Outcome is what the flow's negotiation callback returns: the negotiation
// result plus the confirm/reject continuations of step 6. Confirm and
// Reject may be nil when no resources were reserved.
type Outcome struct {
	Status       string
	Offer        *profile.MMProfile
	Cost         cost.Money
	ChoicePeriod time.Duration
	Reason       string
	Violations   []string
	Confirm      func() error
	Reject       func() error
}

// State is the window the flow currently displays.
type State int

// The flow states, one per GUI window plus the terminal states.
const (
	StateMain State = iota
	StateComponents
	StateInformation
	StatePlaying
	StateExited
)

var stateNames = [...]string{"main", "components", "information", "playing", "exited"}

// String names the state.
func (s State) String() string {
	if s < 0 || int(s) >= len(stateNames) {
		return fmt.Sprintf("State(%d)", int(s))
	}
	return stateNames[s]
}

// ErrBadTransition is returned for window actions that do not apply to the
// current window.
var ErrBadTransition = errors.New("profilemgr: action not available in this window")

// Flow is the QoS GUI window flow: main window → (negotiate) → information
// window → confirmation, with the profile component window reachable for
// editing and for inspecting red constraint flags after a failure.
type Flow struct {
	store     *profile.Store
	negotiate func(profile.UserProfile) (Outcome, error)

	state    State
	selected string
	outcome  *Outcome
	failed   map[string]bool
	// Transcript accumulates every window rendered, in order; the
	// profiletool prints it and tests assert on it.
	Transcript []string
}

// NewFlow builds a window flow over a profile store and a negotiation
// callback.
func NewFlow(store *profile.Store, negotiate func(profile.UserProfile) (Outcome, error)) *Flow {
	f := &Flow{store: store, negotiate: negotiate, state: StateMain}
	if d, err := store.Default(); err == nil {
		f.selected = d.Name
	}
	f.record()
	return f
}

// State returns the current window.
func (f *Flow) State() State { return f.state }

// Selected returns the selected profile name.
func (f *Flow) Selected() string { return f.selected }

// Outcome returns the last negotiation outcome, if any.
func (f *Flow) Outcome() *Outcome { return f.outcome }

// record renders the current window onto the transcript.
func (f *Flow) record() {
	f.Transcript = append(f.Transcript, f.Render())
}

// Render renders the current window.
func (f *Flow) Render() string {
	switch f.state {
	case StateMain:
		return RenderMain(f.store, f.selected)
	case StateComponents:
		u, err := f.store.Get(f.selected)
		if err != nil {
			return box("Profile component window", []string{"(no profile selected)"})
		}
		return RenderComponents(u, f.failed)
	case StateInformation:
		r := InfoResult{Status: "?"}
		if f.outcome != nil {
			r = InfoResult{
				Status:       f.outcome.Status,
				Offer:        f.outcome.Offer,
				Cost:         f.outcome.Cost,
				ChoicePeriod: f.outcome.ChoicePeriod.String(),
				Reason:       f.outcome.Reason,
			}
		}
		return RenderInformation(r)
	case StatePlaying:
		return box("Player", []string{"Delivery in progress..."})
	default:
		return box("QoS GUI", []string{"(exited)"})
	}
}

// Select highlights a profile in the main window.
func (f *Flow) Select(name string) error {
	if f.state != StateMain {
		return ErrBadTransition
	}
	if _, err := f.store.Get(name); err != nil {
		return err
	}
	f.selected = name
	f.record()
	return nil
}

// OK in the main window starts the negotiation with the selected profile
// and moves to the information window ("When the user selects the desired
// user profile, he/she clicks on OK to start negotiation").
func (f *Flow) OK() error {
	if f.state != StateMain {
		return ErrBadTransition
	}
	u, err := f.store.Get(f.selected)
	if err != nil {
		return err
	}
	out, err := f.negotiate(u)
	if err != nil {
		return err
	}
	f.outcome = &out
	f.failed = nil
	if out.Offer != nil {
		f.failed = FailedSections(u, *out.Offer)
	}
	f.state = StateInformation
	f.record()
	return nil
}

// Edit opens the profile component window (double-click on a profile).
// After a failed negotiation it shows the red constraint flags.
func (f *Flow) Edit() error {
	if f.state != StateMain && f.state != StateInformation {
		return ErrBadTransition
	}
	f.state = StateComponents
	f.record()
	return nil
}

// Save stores the (externally edited) profile and returns to the main
// window.
func (f *Flow) Save(u profile.UserProfile) error {
	if f.state != StateComponents {
		return ErrBadTransition
	}
	if err := f.store.Save(u); err != nil {
		return err
	}
	f.selected = u.Name
	f.state = StateMain
	f.record()
	return nil
}

// Back returns from the component window to the main window without
// saving.
func (f *Flow) Back() error {
	if f.state != StateComponents {
		return ErrBadTransition
	}
	f.state = StateMain
	f.record()
	return nil
}

// Accept is OK in the information window: confirm the reserved offer and
// start the delivery.
func (f *Flow) Accept() error {
	if f.state != StateInformation {
		return ErrBadTransition
	}
	if f.outcome == nil || f.outcome.Confirm == nil {
		// Failure without reservation: acknowledging returns to the main
		// window.
		f.state = StateMain
		f.record()
		return nil
	}
	if err := f.outcome.Confirm(); err != nil {
		return err
	}
	f.state = StatePlaying
	f.record()
	return nil
}

// Cancel is CANCEL in the information window: reject the offer (releasing
// the reserved resources) and return to the main window for renegotiation.
func (f *Flow) Cancel() error {
	if f.state != StateInformation {
		return ErrBadTransition
	}
	if f.outcome != nil && f.outcome.Reject != nil {
		if err := f.outcome.Reject(); err != nil {
			return err
		}
	}
	f.state = StateMain
	f.record()
	return nil
}

// Renegotiate models the Section 8 flow "modify the offer and then push OK
// to initiate a renegotiation": from the information window, the edited
// profile is saved and the negotiation re-run; the flow stays in the
// information window showing the new outcome.
func (f *Flow) Renegotiate(u profile.UserProfile) error {
	if f.state != StateInformation {
		return ErrBadTransition
	}
	// The previous reservation is surrendered before the new attempt (the
	// core manager's Renegotiate does the same internally when driven
	// directly; at the window level the negotiate callback owns it).
	if f.outcome != nil && f.outcome.Reject != nil {
		if err := f.outcome.Reject(); err != nil {
			return err
		}
	}
	if err := f.store.Save(u); err != nil {
		return err
	}
	f.selected = u.Name
	out, err := f.negotiate(u)
	if err != nil {
		return err
	}
	f.outcome = &out
	f.failed = nil
	if out.Offer != nil {
		f.failed = FailedSections(u, *out.Offer)
	}
	f.record()
	return nil
}

// Timeout models the choicePeriod expiring before the user pressed OK:
// "the session is simply aborted and a new negotiation is required".
func (f *Flow) Timeout() error {
	if f.state != StateInformation {
		return ErrBadTransition
	}
	if f.outcome != nil && f.outcome.Reject != nil {
		f.outcome.Reject()
	}
	f.outcome = nil
	f.state = StateMain
	f.record()
	return nil
}

// Exit leaves the GUI from the main window.
func (f *Flow) Exit() error {
	if f.state != StateMain {
		return ErrBadTransition
	}
	f.state = StateExited
	f.record()
	return nil
}
