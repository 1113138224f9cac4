// Package links implements SyD coordination links, the paper's primary
// contribution (§4): abstract relationships among entities with an
// underlying constraint and event-triggered actions.
//
// A link is "an entry in a data-store associated with an entity" and
// is "specified by its type (subscription / negotiation), its subtype
// (permanent / tentative), references to one or more entities,
// triggers associated with each reference (event-condition-action
// rules), a priority, a constraint (and, or, xor), a link creation
// time and a link expiry time" (§4.1). This package provides:
//
//   - the link database (SyD_Link and SyD_WaitingLink tables, §4.2
//     ops 1 and 3) stored in the node's embedded store;
//   - the two-phase mark-and-lock negotiation protocol with
//     and / or / xor / k-of-n constraints (§4.3), which is also §4.2
//     op 2's availability-negotiated link creation: the action a
//     Commit applies installs each participant's row;
//   - automatic tentative→permanent promotion by priority when a
//     blocking link is deleted (§4.2 op 3);
//   - cascading link deletion across users (§4.2 op 4, §4.4);
//   - subscription propagation, whose triggers that name a method are
//     §4.2 op 5's method-invocation mapping;
//   - periodic link expiry (§4.2 op 6).
package links

import (
	"fmt"
	"time"

	"repro/internal/wire"
)

// Type discriminates the two coordination link types (§4.2).
type Type string

// Link types.
const (
	// Subscription links "allow automatic flow of information from a
	// source entity to other entities that subscribe to it".
	Subscription Type = "subscription"
	// Negotiation links "enforce dependencies and constraints across
	// entities and trigger changes based on constraint satisfaction".
	Negotiation Type = "negotiation"
)

// Subtype is the permanent/tentative axis (§4.1).
type Subtype string

// Link subtypes.
const (
	Permanent Subtype = "permanent"
	Tentative Subtype = "tentative"
)

// Constraint is the negotiation logic (§4.3). Or and Xor generalize to
// "at least k of n" and "exactly k of n" via Link.K (K==0 means k=1).
type Constraint string

// Negotiation constraints.
const (
	And Constraint = "and" // all targets must change
	Or  Constraint = "or"  // at least k targets must change
	Xor Constraint = "xor" // exactly k targets must change
)

// EntityRef names an entity on some user's device: the user id plus a
// device-local entity id (for the calendar, "slot:2003-04-22:14").
type EntityRef struct {
	User   string `json:"user"`
	Entity string `json:"entity"`
}

// String implements fmt.Stringer.
func (e EntityRef) String() string { return e.User + "/" + e.Entity }

// Less orders entity refs globally; negotiation-and acquires locks in
// this order so overlapping negotiations cannot deadlock.
func (e EntityRef) Less(o EntityRef) bool {
	if e.User != o.User {
		return e.User < o.User
	}
	return e.Entity < o.Entity
}

// Trigger is the ECA rule attached to a link (§4.1: "triggers
// associated with each reference"). Event selects when it fires; Action
// or Method says what it does. An "avail" trigger that names both makes
// its tentative link a voter (Manager.offer): when the link's own entity
// comes free, it is marked with Action and Method tells the target so.
type Trigger struct {
	// Event is the firing event: "change", "delete", "promote",
	// "avail", or an application-defined name.
	Event string `json:"event"`
	// Action, when set, is an entity action (registered with the
	// Manager) executed on the link's targets — under negotiation
	// for negotiation links, best-effort for subscription links.
	Action string `json:"action,omitempty"`
	// Service/Method, when set, invoke a SyD service method. Service
	// may contain "%s", replaced with the target's user id.
	Service string `json:"service,omitempty"`
	Method  string `json:"method,omitempty"`
	// Args are static arguments merged under the runtime event args
	// (runtime wins on key conflict).
	Args wire.Args `json:"args,omitempty"`
}

// Link is one coordination link row. The same logical link is stored
// under the same ID on every participating user's device; cascading
// operations key on the ID.
type Link struct {
	ID         string      `json:"id"`
	Type       Type        `json:"type"`
	Subtype    Subtype     `json:"subtype"`
	Owner      EntityRef   `json:"owner"`   // the local entity this row is attached to
	Targets    []EntityRef `json:"targets"` // linked entities
	Constraint Constraint  `json:"constraint,omitempty"`
	K          int         `json:"k,omitempty"` // k for k-of-n (0 = 1)
	Priority   int         `json:"priority"`
	Triggers   []Trigger   `json:"triggers,omitempty"`
	// WaitingOn is the blocking link's ID for tentative links
	// (SyD_WaitingLink, §4.2 op 3). Empty for permanent links.
	WaitingOn string `json:"waitingOn,omitempty"`
	// Group batches waiting links that promote together (§4.2 op 3:
	// "groups of links waiting on a particular link"); the calendar
	// uses the meeting id.
	Group   string    `json:"group,omitempty"`
	Created time.Time `json:"created"`
	// Expires is the expiry time; zero means never (§4.2 op 6).
	Expires time.Time `json:"expires,omitempty"`
}

// Validate checks structural invariants.
func (l *Link) Validate() error {
	if l.ID == "" {
		return fmt.Errorf("links: link needs an ID")
	}
	switch l.Type {
	case Subscription, Negotiation:
	default:
		return fmt.Errorf("links: bad type %q", l.Type)
	}
	switch l.Subtype {
	case Permanent, Tentative:
	default:
		return fmt.Errorf("links: bad subtype %q", l.Subtype)
	}
	if l.Type == Negotiation {
		switch l.Constraint {
		case And, Or, Xor:
		default:
			return fmt.Errorf("links: negotiation link needs a constraint, got %q", l.Constraint)
		}
	}
	if l.Owner.User == "" || l.Owner.Entity == "" {
		return fmt.Errorf("links: link needs an owner entity")
	}
	if l.K < 0 {
		return fmt.Errorf("links: negative k")
	}
	if l.Subtype == Tentative && l.WaitingOn == "" {
		// A tentative link not waiting on anything is legal (it may
		// be queued at a slot awaiting a status change, §5), so no
		// error — but a WaitingOn on a permanent link is not.
		return nil
	}
	if l.Subtype == Permanent && l.WaitingOn != "" {
		return fmt.Errorf("links: permanent link cannot wait on %q", l.WaitingOn)
	}
	return nil
}

// EffectiveK returns the k for k-of-n constraints (defaulting to 1).
func (l *Link) EffectiveK() int {
	if l.K <= 0 {
		return 1
	}
	return l.K
}

// TriggersFor returns the link's triggers firing on event.
func (l *Link) TriggersFor(event string) []Trigger {
	var out []Trigger
	for _, t := range l.Triggers {
		if t.Event == event {
			out = append(out, t)
		}
	}
	return out
}

// voteTrigger returns the trigger that makes a tentative link a voter:
// the "avail" one naming the action to mark its own entity with and the
// method that carries the mark to its target.
func (l *Link) voteTrigger() (Trigger, bool) {
	if l.Subtype == Tentative && len(l.Targets) > 0 {
		for _, t := range l.Triggers {
			if t.Event == "avail" && t.Action != "" && t.Method != "" {
				return t, true
			}
		}
	}
	return Trigger{}, false
}
