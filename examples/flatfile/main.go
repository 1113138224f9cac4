// Flat-file device — the paper's heterogeneity claim (§2): a SyD data
// store "may be a traditional database ... or may be an ad-hoc data
// store such as a flat file, an EXCEL worksheet or a list repository".
//
// This example keeps a device's calendar as a plain CSV file on disk:
// the file is loaded into the device store at boot, the device
// participates in normal SyD meeting coordination, and the (changed)
// calendar is written back as CSV — remote callers never know the
// difference, because the deviceware encapsulates the store.
//
//	go run ./examples/flatfile
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"repro/internal/calendar"
	"repro/internal/core"
	"repro/internal/directory"
	"repro/internal/sim"
)

func main() {
	ctx := context.Background()
	dir, err := os.MkdirTemp("", "syd-flatfile")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	csvPath := filepath.Join(dir, "andy-calendar.csv")

	// Andy's calendar lives in a hand-editable CSV flat file.
	seed := "day,hour,meeting,priority\n" +
		"2003-04-22,9,personal:standup,0\n" +
		"2003-04-22,10,personal:gym,0\n"
	if err := os.WriteFile(csvPath, []byte(seed), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("andy's flat-file calendar (%s):\n%s\n", csvPath, seed)

	net := sim.New(sim.Config{})
	dirSrv := directory.NewServer(directory.WithTTL(time.Hour))
	if _, err := net.Listen("dir", dirSrv.Handler()); err != nil {
		log.Fatal(err)
	}
	cals := map[string]*calendar.Calendar{}
	nodes := map[string]*core.Node{}
	for _, user := range []string{"phil", "andy"} {
		node, err := core.Start(ctx, core.Config{User: user, Net: net, DirAddr: "dir"})
		if err != nil {
			log.Fatal(err)
		}
		c, err := calendar.New(ctx, node)
		if err != nil {
			log.Fatal(err)
		}
		cals[user], nodes[user] = c, node
	}

	// Load the flat file into andy's device store.
	slotsTable, err := nodes["andy"].DB.Table("cal_slots")
	if err != nil {
		log.Fatal(err)
	}
	if err := loadCSVFile(ctx, nodes["andy"].DB, "cal_slots", csvPath); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("loaded %d slots from the flat file\n", slotsTable.Count())

	// Phil schedules a meeting — the search must route around the
	// flat-file appointments (9:00 and 10:00 are taken).
	m, err := cals["phil"].SetupMeeting(ctx, calendar.Request{
		Title: "sync", FromDay: "2003-04-22", ToDay: "2003-04-22", Must: []string{"andy"},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("meeting %s scheduled %s at %s (skipped andy's CSV slots)\n", m.ID, m.Status, m.Slot)
	if m.Slot.Hour == 9 || m.Slot.Hour == 10 {
		log.Fatal("flat-file slots ignored")
	}

	// Write andy's calendar back to the flat file — now including the
	// coordinated meeting.
	if err := saveCSVFile(slotsTable, csvPath); err != nil {
		log.Fatal(err)
	}
	out, err := os.ReadFile(csvPath)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nflat file after coordination:\n%s", out)
}
