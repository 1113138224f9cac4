package repro

// The baseline models the "existing calendar applications" of the
// paper's §6 comparison (Outlook / GroupWise / Lotus Notes as the
// paper describes them):
//
//   - "each user stores a copy of every member's folder on his local
//     machine" — full folder replication;
//   - "each time a meeting needs to be set up, the initiator sends an
//     email to the required participants. The recipients then manually
//     have to accept this meeting" — e-mail invitations and manual
//     accepts;
//   - "there is no concept of priority ... only the initiator of a
//     meeting can cancel ... no option of automatic rescheduling of
//     meetings cancelled due to attendee unavailability" — every
//     repair is a human action;
//   - "there is also no authentication of users".
//
// The model counts exactly what the T1 experiment compares against
// SyD: replicated storage bytes, messages exchanged, and human
// interventions per scheduled / cancelled / rescheduled meeting.

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/workload"
)

// baselineSlot mirrors calendar.Slot without using it (the baseline is
// an independent system).
type baselineSlot struct {
	Day  string
	Hour int
}

// entry is one slot occupancy inside a folder.
type entry struct {
	Meeting string
}

// folder is one user's calendar: slot -> entry.
type folder map[baselineSlot]entry

// baselineMeeting is a scheduled baseline meeting.
type baselineMeeting struct {
	ID           string
	Initiator    string
	Participants []string
	Slot         baselineSlot
	Confirmed    bool
}

// baselineStats aggregates the §6 cost counters.
type baselineStats struct {
	// Messages counts e-mails and replication updates sent.
	Messages int
	// Interventions counts manual human actions (accepts, declines,
	// manual reschedules, manual removals).
	Interventions int
	// Retries counts scheduling rounds beyond the first, caused by
	// stale replicas.
	Retries int
}

// baselineSystem is a deployment of the baseline calendar for a fixed
// user population.
type baselineSystem struct {
	users []string
	// replicas[holder][owner] is holder's copy of owner's folder.
	replicas map[string]map[string]folder
	// truth[owner] is the owner's real folder (what accepts mutate).
	truth map[string]folder
	// lag, when true, stops automatic replication: replicas go stale
	// until PropagateAll, producing the decline/re-schedule cycles
	// real deployments see.
	lag bool

	meetings map[string]*baselineMeeting
	nextID   int
	stats    baselineStats
}

// newBaseline creates a baseline system for users; every user
// immediately replicates every other user's (empty) folder.
func newBaseline(users []string, replicationLag bool) *baselineSystem {
	s := &baselineSystem{
		users:    append([]string(nil), users...),
		replicas: make(map[string]map[string]folder),
		truth:    make(map[string]folder),
		lag:      replicationLag,
		meetings: make(map[string]*baselineMeeting),
	}
	for _, u := range users {
		s.truth[u] = make(folder)
		s.replicas[u] = make(map[string]folder)
		for _, o := range users {
			s.replicas[u][o] = make(folder)
		}
	}
	return s
}

// Stats returns the accumulated counters.
func (s *baselineSystem) Stats() baselineStats { return s.stats }

// ResetStats zeroes the counters (storage is recomputed on demand).
func (s *baselineSystem) ResetStats() { s.stats = baselineStats{} }

// MarkBusy sets a personal appointment in the owner's real folder and
// replicates it.
func (s *baselineSystem) MarkBusy(user string, slot baselineSlot, label string) {
	s.truth[user][slot] = entry{Meeting: "personal:" + label}
	s.replicate(user)
}

// replicate pushes owner's folder to every other user's replica
// (N-1 messages), unless lag is enabled.
func (s *baselineSystem) replicate(owner string) {
	if s.lag {
		return
	}
	s.forceReplicate(owner)
}

func (s *baselineSystem) forceReplicate(owner string) {
	for _, holder := range s.users {
		if holder == owner {
			continue
		}
		cp := make(folder, len(s.truth[owner]))
		for k, v := range s.truth[owner] {
			cp[k] = v
		}
		s.replicas[holder][owner] = cp
		s.stats.Messages++
	}
}

// PropagateAll flushes every folder to every replica (the overnight
// sync of a lagged deployment).
func (s *baselineSystem) PropagateAll() {
	for _, u := range s.users {
		s.forceReplicate(u)
	}
}

// freeInReplica reports whether, according to initiator's replicas,
// the slot is free for all participants.
func (s *baselineSystem) freeInReplica(initiator string, participants []string, slot baselineSlot) bool {
	for _, p := range participants {
		var f folder
		if p == initiator {
			f = s.truth[p]
		} else {
			f = s.replicas[initiator][p]
		}
		if _, busy := f[slot]; busy {
			return false
		}
	}
	return true
}

// freeInTruth is the ground truth check used when a participant
// decides whether to accept.
func (s *baselineSystem) freeInTruth(user string, slot baselineSlot) bool {
	_, busy := s.truth[user][slot]
	return !busy
}

// ScheduleMeeting runs the §6 manual workflow: the initiator picks the
// first slot that looks free in their replicas, e-mails everyone, and
// each participant manually accepts or declines against their real
// calendar; any decline forces the initiator to manually pick another
// slot and start over. Returns the meeting (nil if the window is
// exhausted) and the number of rounds it took.
func (s *baselineSystem) ScheduleMeeting(initiator string, participants []string, candidates []baselineSlot) (*baselineMeeting, int) {
	all := append([]string{initiator}, participants...)
	rounds := 0
	for _, slot := range candidates {
		if !s.freeInReplica(initiator, all, slot) {
			continue
		}
		rounds++
		if rounds > 1 {
			// Picking a new slot after declines is a manual act.
			s.stats.Interventions++
			s.stats.Retries++
		}
		// Invitation e-mails.
		s.stats.Messages += len(participants)
		accepted := true
		for _, p := range participants {
			// Reading and answering the invite is manual.
			s.stats.Interventions++
			if !s.freeInTruth(p, slot) {
				// Decline e-mail back to the initiator.
				s.stats.Messages++
				accepted = false
				break
			}
			// Accept e-mail back.
			s.stats.Messages++
		}
		if !accepted {
			continue
		}
		s.nextID++
		m := &baselineMeeting{
			ID:           fmt.Sprintf("BM-%d", s.nextID),
			Initiator:    initiator,
			Participants: append([]string(nil), all...),
			Slot:         slot,
			Confirmed:    true,
		}
		for _, p := range all {
			s.truth[p][slot] = entry{Meeting: m.ID}
			s.replicate(p)
		}
		s.meetings[m.ID] = m
		return m, rounds
	}
	return nil, rounds
}

// CancelMeeting runs the manual cancellation: cancellation e-mails go
// out and every participant manually removes the entry. Nothing is
// auto-rescheduled — any meeting that wanted this slot must be
// re-scheduled by a human from scratch (counted by the caller running
// ScheduleMeeting again).
func (s *baselineSystem) CancelMeeting(id string) bool {
	m, ok := s.meetings[id]
	if !ok || !m.Confirmed {
		return false
	}
	m.Confirmed = false
	s.stats.Messages += len(m.Participants) - 1 // cancellation e-mails
	for _, p := range m.Participants {
		if p != m.Initiator {
			s.stats.Interventions++ // manual removal
		}
		delete(s.truth[p], m.Slot)
		s.replicate(p)
	}
	return true
}

// StorageBytes estimates per-user storage: every slot entry in every
// replica (and the user's own folder) costs entrySize bytes. The §6
// point is the shape: baseline storage grows with the sum of all
// users' calendars, SyD storage only with the user's own.
func (s *baselineSystem) StorageBytes(user string, entrySize int) int {
	total := len(s.truth[user]) * entrySize
	for _, f := range s.replicas[user] {
		total += len(f) * entrySize
	}
	return total
}

// TotalStorageBytes sums StorageBytes over all users.
func (s *baselineSystem) TotalStorageBytes(entrySize int) int {
	total := 0
	for _, u := range s.users {
		total += s.StorageBytes(u, entrySize)
	}
	return total
}

// Users returns the population, sorted.
func (s *baselineSystem) Users() []string {
	out := append([]string(nil), s.users...)
	sort.Strings(out)
	return out
}

// baselineSlots converts window slots to baseline slots.
func baselineSlots(w workload.Window) []baselineSlot {
	slots := w.Slots()
	out := make([]baselineSlot, len(slots))
	for i, s := range slots {
		out[i] = baselineSlot{Day: s.Day, Hour: s.Hour}
	}
	return out
}

// applyToBaseline marks the plan's slots busy in a baseline system.
func applyToBaseline(p workload.BusyPlan, s *baselineSystem) {
	for u, slots := range p {
		for _, sl := range slots {
			s.MarkBusy(u, baselineSlot{Day: sl.Day, Hour: sl.Hour}, "appt")
		}
	}
}

// --- tests of the model -----------------------------------------------------

// letters returns n user ids a, b, c, ...
func letters(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = string(rune('a' + i))
	}
	return out
}

func candidates(day string, hours ...int) []baselineSlot {
	out := make([]baselineSlot, len(hours))
	for i, h := range hours {
		out[i] = baselineSlot{Day: day, Hour: h}
	}
	return out
}

func TestBaselineScheduleHappyPath(t *testing.T) {
	s := newBaseline(letters(4), false) // a,b,c,d
	m, rounds := s.ScheduleMeeting("a", []string{"b", "c", "d"}, candidates("d1", 9, 10))
	if m == nil || !m.Confirmed || rounds != 1 {
		t.Fatalf("m=%+v rounds=%d", m, rounds)
	}
	st := s.Stats()
	// 3 invites + 3 accepts + replication: 4 users each replicate to
	// 3 others = 12. Total 18.
	if st.Messages != 18 {
		t.Fatalf("messages = %d", st.Messages)
	}
	// Every participant manually accepted.
	if st.Interventions != 3 {
		t.Fatalf("interventions = %d", st.Interventions)
	}
	// Everyone's truth folder holds the slot.
	for _, u := range []string{"a", "b", "c", "d"} {
		if s.freeInTruth(u, m.Slot) {
			t.Fatalf("%s slot not reserved", u)
		}
	}
}

func TestBaselineScheduleSkipsBusyReplica(t *testing.T) {
	s := newBaseline(letters(2), false)
	s.MarkBusy("b", baselineSlot{Day: "d1", Hour: 9}, "gym")
	m, _ := s.ScheduleMeeting("a", []string{"b"}, candidates("d1", 9, 10))
	if m == nil || m.Slot.Hour != 10 {
		t.Fatalf("m = %+v", m)
	}
}

func TestBaselineStaleReplicaCausesDeclineAndRetry(t *testing.T) {
	s := newBaseline(letters(2), true) // replication lag on
	// b gets busy at 9 but the update never reaches a's replica.
	s.MarkBusy("b", baselineSlot{Day: "d1", Hour: 9}, "gym")
	s.ResetStats()
	m, rounds := s.ScheduleMeeting("a", []string{"b"}, candidates("d1", 9, 10))
	if m == nil || m.Slot.Hour != 10 {
		t.Fatalf("m = %+v", m)
	}
	if rounds != 2 {
		t.Fatalf("rounds = %d", rounds)
	}
	st := s.Stats()
	if st.Retries != 1 {
		t.Fatalf("retries = %d", st.Retries)
	}
	// Interventions: b's decline (1) + a's manual re-pick (1) + b's
	// accept (1) = 3.
	if st.Interventions != 3 {
		t.Fatalf("interventions = %d", st.Interventions)
	}
}

func TestBaselineScheduleExhaustsWindow(t *testing.T) {
	s := newBaseline(letters(2), false)
	s.MarkBusy("b", baselineSlot{Day: "d1", Hour: 9}, "x")
	s.MarkBusy("b", baselineSlot{Day: "d1", Hour: 10}, "y")
	m, _ := s.ScheduleMeeting("a", []string{"b"}, candidates("d1", 9, 10))
	if m != nil {
		t.Fatalf("m = %+v", m)
	}
}

func TestBaselineCancelIsManualEverywhere(t *testing.T) {
	s := newBaseline(letters(3), false)
	m, _ := s.ScheduleMeeting("a", []string{"b", "c"}, candidates("d1", 9))
	if m == nil {
		t.Fatal("schedule failed")
	}
	s.ResetStats()
	if !s.CancelMeeting(m.ID) {
		t.Fatal("cancel failed")
	}
	st := s.Stats()
	// 2 cancellation e-mails + 2 manual removals (+ replication).
	if st.Interventions != 2 {
		t.Fatalf("interventions = %d", st.Interventions)
	}
	if st.Messages < 2 {
		t.Fatalf("messages = %d", st.Messages)
	}
	for _, u := range []string{"a", "b", "c"} {
		if !s.freeInTruth(u, m.Slot) {
			t.Fatalf("%s slot not released", u)
		}
	}
	if s.CancelMeeting(m.ID) {
		t.Fatal("double cancel succeeded")
	}
	if s.CancelMeeting("nope") {
		t.Fatal("cancel of unknown meeting succeeded")
	}
}

func TestBaselineStorageGrowsWithPopulation(t *testing.T) {
	// §6's storage claim: baseline per-user storage ~ sum of ALL
	// calendars; doubling the population (with the same per-user
	// load) roughly doubles per-user storage.
	perUser := func(n int) int {
		s := newBaseline(letters(n), false)
		for _, u := range s.Users() {
			for h := 9; h < 14; h++ {
				s.MarkBusy(u, baselineSlot{Day: "d1", Hour: h}, "x")
			}
		}
		return s.StorageBytes(s.Users()[0], 64)
	}
	small, large := perUser(4), perUser(8)
	if large < small*18/10 {
		t.Fatalf("storage did not scale with population: %d -> %d", small, large)
	}
}

func TestBaselinePropagateAllHealsStaleness(t *testing.T) {
	s := newBaseline(letters(2), true)
	s.MarkBusy("b", baselineSlot{Day: "d1", Hour: 9}, "gym")
	s.PropagateAll()
	// Now a's replica knows; scheduling goes straight to 10.
	m, rounds := s.ScheduleMeeting("a", []string{"b"}, candidates("d1", 9, 10))
	if m == nil || m.Slot.Hour != 10 || rounds != 1 {
		t.Fatalf("m=%+v rounds=%d", m, rounds)
	}
}

func TestBaselineSlotsMirrorWindow(t *testing.T) {
	w := workload.DefaultWindow()
	slots, bs := w.Slots(), baselineSlots(w)
	if len(bs) != len(slots) || bs[0] != (baselineSlot{Day: "2003-04-21", Hour: w.Hours[0]}) {
		t.Fatalf("baseline slots = %v...", bs[0])
	}
}
