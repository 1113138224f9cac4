package links

import (
	"fmt"
	"time"

	"repro/internal/jsonrec"
	"repro/internal/store"
	"repro/internal/wire"
)

// Table names, matching the paper's nomenclature.
// SyD_NegotiationJournal is our addition: the device's outbox, one row
// per message it still owes a peer (see journal.go). Because it lives in
// the node's store it flows through the mutation-logger hooks, so with
// durability on a debt survives a crash of the device and the sweep pays
// it after recovery:
//
//	kind    written in the unit of       retired when           end rule
//	commit  the COMMIT decision (§4.3)   every target answered  expired after maxAttempts
//	delete  Unlink's link removal (§4.4) every peer answered    none: retried at retryCap
//
// SyD_NegotiationDecided is the participant's durable memory of decided
// lock tokens: a participant that applied a Commit, lost the ack, and
// crashed must still recognize the re-sent Commit as a duplicate after
// restart — the in-memory decided cache is gone, but the row (written
// alongside the applied mutation, through the same store/WAL) survives.
const (
	LinkTable          = "SyD_Link"
	WaitingLinkTable   = "SyD_WaitingLink"
	NegotiationJournal = "SyD_NegotiationJournal"
	NegotiationDecided = "SyD_NegotiationDecided"
)

// createLinkDB implements §4.2 op 1: "all link information is
// maintained in a link database that is stored locally by the user...
// created when he/she installs a SyD application with link-enabled
// features". Idempotent.
func createLinkDB(db *store.DB) (links, waiting, journal, decided *store.Table, err error) {
	fail := func(err error) (_, _, _, _ *store.Table, _ error) {
		return nil, nil, nil, nil, err
	}
	links, err = db.EnsureTable(store.Schema{
		Name: LinkTable,
		Columns: []store.Column{
			{Name: "id", Type: store.String},
			{Name: "type", Type: store.String},
			{Name: "subtype", Type: store.String},
			{Name: "owner_user", Type: store.String},
			{Name: "owner_entity", Type: store.String},
			{Name: "targets", Type: store.String}, // JSON []EntityRef
			{Name: "constraint", Type: store.String},
			{Name: "k", Type: store.Int},
			{Name: "priority", Type: store.Int},
			{Name: "triggers", Type: store.String}, // JSON []Trigger
			{Name: "waiting_on", Type: store.String},
			{Name: "grp", Type: store.String},
			{Name: "created", Type: store.Time},
			{Name: "expires", Type: store.Time},
		},
		Key: []string{"id"},
	})
	if err != nil {
		return fail(err)
	}
	if err = links.CreateIndex("owner_entity"); err != nil {
		return fail(err)
	}
	waiting, err = db.EnsureTable(store.Schema{
		Name: WaitingLinkTable,
		Columns: []store.Column{
			{Name: "id", Type: store.String}, // waiting link id
			{Name: "waiting_on", Type: store.String},
			{Name: "priority", Type: store.Int},
			{Name: "grp", Type: store.String},
		},
		Key: []string{"id"},
	})
	if err != nil {
		return fail(err)
	}
	if err = waiting.CreateIndex("waiting_on"); err != nil {
		return fail(err)
	}
	journal, err = db.EnsureTable(store.Schema{
		Name: NegotiationJournal,
		Columns: []store.Column{
			{Name: "id", Type: store.String}, // negotiation or link id
			// The record body (kind, method args, peers owed, trace
			// identity, attempt count) rides one JSON blob: the outbox is
			// written on every negotiation's and every cancel's hot path,
			// and one encode beats the per-column encodes the row used to
			// take. next_retry stays a real column because the sweep
			// selects on it.
			{Name: "rec", Type: store.String},      // JSON journalRec
			{Name: "next_retry", Type: store.Time}, // earliest next sweeper attempt
		},
		Key: []string{"id"},
	})
	if err != nil {
		return fail(err)
	}
	decided, err = db.EnsureTable(store.Schema{
		Name: NegotiationDecided,
		Columns: []store.Column{
			{Name: "token", Type: store.String}, // lock token the decision is keyed on
			{Name: "nid", Type: store.String},   // negotiation id (diagnostics)
			{Name: "committed", Type: store.Int},
			{Name: "at", Type: store.Time}, // decision time (GC horizon)
		},
		Key: []string{"token"},
	})
	if err != nil {
		return fail(err)
	}
	return links, waiting, journal, decided, nil
}

// linkToRow encodes a Link as a row of the link table t. The targets
// and triggers columns hold the text json.Marshal writes for the two
// slices, appended field by field (FuzzLinkRecord holds the two equal)
// into one buffer that becomes one string both columns slice.
func linkToRow(t *store.Table, l *Link) (store.Row, error) {
	var buf [512]byte
	b := appendTargets(buf[:0], l.Targets)
	n := len(b)
	b, err := appendTriggers(b, l.Triggers)
	if err != nil {
		return store.Row{}, fmt.Errorf("links: encode triggers: %w", err)
	}
	text := string(b)
	expires := l.Expires
	if expires.IsZero() {
		expires = time.Time{}
	}
	r := t.NewRow()
	r.SetStr("id", l.ID)
	r.SetStr("type", string(l.Type))
	r.SetStr("subtype", string(l.Subtype))
	r.SetStr("owner_user", l.Owner.User)
	r.SetStr("owner_entity", l.Owner.Entity)
	r.SetStr("targets", text[:n])
	r.SetStr("constraint", string(l.Constraint))
	r.SetInt("k", int64(l.K))
	r.SetInt("priority", int64(l.Priority))
	r.SetStr("triggers", text[n:])
	r.SetStr("waiting_on", l.WaitingOn)
	r.SetStr("grp", l.Group)
	r.SetTime("created", l.Created)
	r.SetTime("expires", expires)
	return r, nil
}

// rowToLink decodes a store row back into a Link.
func rowToLink(r store.Row) (*Link, error) {
	l := &Link{
		ID:         r.Str("id"),
		Type:       Type(r.Str("type")),
		Subtype:    Subtype(r.Str("subtype")),
		Owner:      EntityRef{User: r.Str("owner_user"), Entity: r.Str("owner_entity")},
		Constraint: Constraint(r.Str("constraint")),
		K:          int(r.Int("k")),
		Priority:   int(r.Int("priority")),
		WaitingOn:  r.Str("waiting_on"),
		Group:      r.Str("grp"),
		Created:    r.Time("created"),
		Expires:    r.Time("expires"),
	}
	var err error
	if s := r.Str("targets"); s != "" {
		if l.Targets, err = jsonrec.Decode(s, readTargets); err != nil {
			return nil, fmt.Errorf("links: decode targets of %s: %w", l.ID, err)
		}
	}
	if s := r.Str("triggers"); s != "" {
		if l.Triggers, err = jsonrec.Decode(s, readTriggers); err != nil {
			return nil, fmt.Errorf("links: decode triggers of %s: %w", l.ID, err)
		}
	}
	return l, nil
}

func appendTargets(b []byte, refs []EntityRef) []byte {
	if refs == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, e := range refs {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendRef(b, e)
	}
	return append(b, ']')
}

func appendRef(b []byte, e EntityRef) []byte {
	b = jsonrec.AppendString(append(b, `{"user":`...), e.User)
	return append(jsonrec.AppendString(append(b, `,"entity":`...), e.Entity), '}')
}

func readTargets(s string) ([]EntityRef, bool) {
	r := jsonrec.NewReader(s)
	refs := readRefs(&r)
	return refs, r.Done()
}

// readRefs reads what appendTargets writes.
func readRefs(r *jsonrec.Reader) []EntityRef {
	if r.Null() {
		return nil
	}
	r.Lit("[")
	refs := []EntityRef{}
	for r.More(']') {
		refs = append(refs, readRef(r))
	}
	return refs
}

func readRef(r *jsonrec.Reader) (e EntityRef) {
	r.Lit(`{"user":`)
	e.User = r.String()
	r.Lit(`,"entity":`)
	e.Entity = r.String()
	r.Lit("}")
	return e
}

// appendTriggers appends the triggers with their omitempty fields left
// out and each one's args in key order, as json.Marshal writes a map.
func appendTriggers(b []byte, ts []Trigger) ([]byte, error) {
	if ts == nil {
		return append(b, "null"...), nil
	}
	b = append(b, '[')
	for i, t := range ts {
		if i > 0 {
			b = append(b, ',')
		}
		b = jsonrec.AppendString(append(b, `{"event":`...), t.Event)
		if t.Action != "" {
			b = jsonrec.AppendString(append(b, `,"action":`...), t.Action)
		}
		if t.Service != "" {
			b = jsonrec.AppendString(append(b, `,"service":`...), t.Service)
		}
		if t.Method != "" {
			b = jsonrec.AppendString(append(b, `,"method":`...), t.Method)
		}
		if len(t.Args) > 0 {
			var err error
			if b, err = t.Args.AppendJSON(append(b, `,"args":`...)); err != nil {
				return nil, err
			}
		}
		b = append(b, '}')
	}
	return append(b, ']'), nil
}

func readTriggers(s string) ([]Trigger, bool) {
	r := jsonrec.NewReader(s)
	if r.Null() {
		return nil, r.Done()
	}
	r.Lit("[")
	ts := []Trigger{}
	for r.More(']') {
		var t Trigger
		r.Lit(`{"event":`)
		t.Event = r.String()
		if r.Opt(`,"action":`) {
			t.Action = r.String()
		}
		if r.Opt(`,"service":`) {
			t.Service = r.String()
		}
		if r.Opt(`,"method":`) {
			t.Method = r.String()
		}
		if r.Opt(`,"args":`) {
			t.Args = wire.ReadArgs(&r)
		}
		r.Lit("}")
		ts = append(ts, t)
	}
	return ts, r.Done()
}
