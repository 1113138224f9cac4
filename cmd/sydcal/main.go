// Command sydcal is the calendar CLI — the "client interface" of the
// paper's two-part application split (§3.1): it talks to running
// sydnode instances through the directory.
//
//	sydcal -dir 127.0.0.1:7000 free -user phil -from 2003-04-21 -to 2003-04-25
//	sydcal -dir 127.0.0.1:7000 slots -user phil -day 2003-04-21 -hour 14
//	sydcal -dir 127.0.0.1:7000 meetings -user phil
//	sydcal -dir 127.0.0.1:7000 users
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"repro/internal/calendar"
	"repro/internal/directory"
	"repro/internal/engine"
	"repro/internal/transport"
	"repro/internal/wire"
)

func usage() {
	fmt.Fprintf(os.Stderr, `usage: sydcal [-dir addr] <command> [flags]

commands:
  users                                  list registered users
  free     -user U -from D -to D         list U's free slots
  slots    -user U -day D -hour H        show one slot's occupancy
  meetings -user U                       list U's meetings
  schedule -user U -title T -from D -to D -must a,b,c
                                         set up a meeting initiated by U
  cancel   -user U -as CALLER -id M      cancel meeting M at U's node
`)
	os.Exit(2)
}

func main() {
	dirAddr := flag.String("dir", "127.0.0.1:7000", "directory server address")
	flag.Usage = usage
	flag.Parse()
	if flag.NArg() < 1 {
		usage()
	}
	cmd := flag.Arg(0)
	sub := flag.NewFlagSet(cmd, flag.ExitOnError)
	user := sub.String("user", "", "target user")
	from := sub.String("from", "", "window start day (YYYY-MM-DD)")
	to := sub.String("to", "", "window end day")
	day := sub.String("day", "", "slot day")
	hour := sub.Int("hour", 9, "slot hour")
	caller := sub.String("as", "cli", "acting user identity")
	id := sub.String("id", "", "meeting id")
	title := sub.String("title", "meeting", "meeting title")
	must := sub.String("must", "", "comma-separated must-attendees")
	priority := sub.Int("priority", 0, "meeting priority")
	if err := sub.Parse(flag.Args()[1:]); err != nil {
		usage()
	}

	net := transport.NewTCP()
	dir := directory.NewClient(net, *dirAddr)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	switch cmd {
	case "users":
		infos, err := dir.ListUsers(ctx)
		if err != nil {
			log.Fatalf("sydcal: %v", err)
		}
		for _, u := range infos {
			state := "offline"
			if u.Online {
				state = "online"
			}
			fmt.Printf("%-12s %-8s prio=%d addr=%s\n", u.ID, state, u.Priority, u.Addr)
		}
	case "free":
		requireUser(*user)
		eng := engine.New(net, dir, *caller)
		w, err := calendar.NewWindow(*from, *to, nil)
		if err != nil {
			log.Fatalf("sydcal: %v", err)
		}
		avail, errs := calendar.QueryAvailability(ctx, eng, w, []string{*user})
		if errs[0] != nil {
			log.Fatalf("sydcal: %v", errs[0])
		}
		for _, s := range avail[0].Slots() {
			fmt.Println(s)
		}
	case "slots":
		requireUser(*user)
		eng := engine.New(net, dir, *caller)
		var info calendar.SlotInfo
		err := eng.Invoke(ctx, calendar.ServiceFor(*user), "SlotInfo",
			wire.Args{wire.Str("day", *day), wire.Int("hour", *hour)}, &info)
		if err != nil {
			log.Fatalf("sydcal: %v", err)
		}
		if info.Meeting == "" {
			fmt.Printf("%s: free\n", info.Slot)
		} else {
			fmt.Printf("%s: %s (prio %d)\n", info.Slot, info.Meeting, info.Priority)
		}
	case "meetings":
		requireUser(*user)
		eng := engine.New(net, dir, *caller)
		var meetings []calendar.Meeting
		if err := eng.Invoke(ctx, calendar.ServiceFor(*user), "ListMeetings", nil, &meetings); err != nil {
			log.Fatalf("sydcal: %v", err)
		}
		for _, m := range meetings {
			fmt.Printf("%-16s %-10s %s %q initiator=%s reserved=%v missing=%v\n",
				m.ID, m.Status, m.Slot, m.Title, m.Initiator, m.Reserved, m.Missing)
		}
	case "schedule":
		requireUser(*user)
		eng := engine.New(net, dir, *caller)
		var participants []string
		for _, p := range strings.Split(*must, ",") {
			if p = strings.TrimSpace(p); p != "" {
				participants = append(participants, p)
			}
		}
		var m calendar.Meeting
		req, err := json.Marshal(calendar.Request{
			Title: *title, FromDay: *from, ToDay: *to, Must: participants, Priority: *priority,
		})
		if err != nil {
			log.Fatalf("sydcal: %v", err)
		}
		err = eng.Invoke(ctx, calendar.ServiceFor(*user), "Schedule", wire.Args{wire.Raw("request", req)}, &m)
		if err != nil {
			log.Fatalf("sydcal: %v", err)
		}
		fmt.Printf("meeting %s %q %s at %s (reserved %v)\n", m.ID, m.Title, m.Status, m.Slot, m.Reserved)
	case "cancel":
		requireUser(*user)
		if *id == "" {
			log.Fatal("sydcal: -id is required")
		}
		eng := engine.New(net, dir, *caller)
		err := eng.Invoke(ctx, calendar.ServiceFor(*user), "CancelMeeting",
			wire.Args{wire.Str("meeting", *id)}, nil)
		if err != nil {
			log.Fatalf("sydcal: %v", err)
		}
		fmt.Printf("meeting %s cancelled\n", *id)
	default:
		usage()
	}
}

func requireUser(u string) {
	if u == "" {
		log.Fatal("sydcal: -user is required")
	}
}
