// Quickstart: boot a complete SyD deployment in-process (directory +
// three calendar devices on the simulated network), schedule a meeting
// through coordination links, and print the result — including the
// per-method RPC metrics the engine's and the listener's call paths
// collected along the way.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro/internal/calendar"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/directory"
	"repro/internal/metrics"
	"repro/internal/notify"
	"repro/internal/sim"
)

func main() {
	ctx := context.Background()

	// 1. A simulated network and the SyDDirectory name server.
	net := sim.New(sim.Config{})
	clk := clock.NewFake(time.Date(2003, 4, 21, 8, 0, 0, 0, time.UTC))
	dirSrv := directory.NewServer(directory.WithClock(clk), directory.WithTTL(time.Hour))
	if _, err := net.Listen("dir", dirSrv.Handler()); err != nil {
		log.Fatal(err)
	}

	// 2. Three devices, each with its own kernel node + calendar.
	// Each node's call paths record metrics, and its engine caches
	// directory routes (warm invocations skip the name server).
	reg := metrics.NewRegistry()
	mail := notify.NewMailbox()
	cals := map[string]*calendar.Calendar{}
	for _, user := range []string{"phil", "andy", "suzy"} {
		node, err := core.Start(ctx, core.Config{User: user, Net: net, DirAddr: "dir", Clock: clk,
			Metrics: reg, RouteCacheTTL: 30 * time.Second})
		if err != nil {
			log.Fatal(err)
		}
		c, err := calendar.New(ctx, node, calendar.WithNotifier(mail))
		if err != nil {
			log.Fatal(err)
		}
		cals[user] = c
	}

	// 3. Andy is busy Tuesday morning.
	if err := cals["andy"].MarkBusy(calendar.Slot{Day: "2003-04-22", Hour: 9}, "dentist", 0); err != nil {
		log.Fatal(err)
	}

	// 4. Phil schedules a meeting with both — the kernel finds the
	// common free slot and reserves it atomically via a
	// negotiation-and link.
	m, err := cals["phil"].SetupMeeting(ctx, calendar.Request{
		Title:   "SyD design review",
		FromDay: "2003-04-22", ToDay: "2003-04-23",
		Must: []string{"andy", "suzy"},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("meeting %s %q: %s at %s\n", m.ID, m.Title, m.Status, m.Slot)
	fmt.Printf("reserved participants: %v\n", m.Reserved)

	// 5. Every device now holds the slot and the coordination link.
	for user, c := range cals {
		info := c.Slot(m.Slot)
		_, hasLink := c.Links().GetLink(m.LinkID)
		fmt.Printf("  %-5s slot=%s link=%v inbox=%d\n", user, info.Meeting, hasLink, mail.Count(user))
	}

	// 6. What the call paths measured while all of that happened.
	fmt.Println("\nper-method RPC metrics:")
	fmt.Print(reg.Snapshot().Render())
}
