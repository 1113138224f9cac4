// A stand-in for an absent device — the paper's §5.2 mobility story:
// "a proxy takes over the place of A ... the proxy and the SyD object
// act as a single entity for an outsider". Andy's device is durable
// and leased, and a replication follower of it is the stand-in. Before
// walking away the device releases its lease and the follower
// promotes; meetings keep being scheduled against the stand-in; on
// return the device's own data dir follows the stand-in until it has
// caught up, and the same two calls hand andy back.
//
//	go run ./examples/standin
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
	"repro/internal/replication"
	"repro/internal/sim"
)

const leaseTTL = time.Minute

func main() {
	ctx := context.Background()
	net := sim.New(sim.Config{})
	dirSrv := directory.NewServer(directory.WithTTL(time.Hour))
	if _, err := net.Listen("dir", dirSrv.Handler()); err != nil {
		log.Fatal(err)
	}
	root, err := os.MkdirTemp("", "standin-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(root)
	deviceDir, standInDir := filepath.Join(root, "andy"), filepath.Join(root, "andy-stand-in")

	cals := map[string]*calendar.Calendar{}
	nodes := map[string]*core.Node{}
	start := func(cfg core.Config) error {
		cfg.Net, cfg.DirAddr = net, "dir"
		node, err := core.Start(ctx, cfg)
		if err != nil {
			return err
		}
		c, err := calendar.New(ctx, node)
		if err != nil {
			return err
		}
		nodes[cfg.User], cals[cfg.User] = node, c
		return nil
	}
	// follow starts a follower of andy over dir at addr, which promotes
	// into andy's calendar node at the same address.
	follow := func(dir, addr string) *replication.Follower {
		f, err := replication.StartFollower(ctx, replication.FollowerConfig{
			User: "andy", Net: net, Dir: directory.NewClient(net, "dir"),
			DataDir: dir, ListenAddr: addr, LeaseTTL: leaseTTL,
			Promote: func(ctx context.Context, holder string) (string, error) {
				if err := start(core.Config{User: "andy", DataDir: dir, LeaseTTL: leaseTTL, LeaseHolder: holder, ListenAddr: addr}); err != nil {
					return "", err
				}
				return nodes["andy"].Addr(), nil
			},
		})
		if err != nil {
			log.Fatal(err)
		}
		return f
	}

	if err := start(core.Config{User: "phil"}); err != nil {
		log.Fatal(err)
	}
	if err := start(core.Config{User: "andy", DataDir: deviceDir, LeaseTTL: leaseTTL, ListenAddr: "node-andy"}); err != nil {
		log.Fatal(err)
	}
	standIn := follow(standInDir, "standin-andy")

	// Andy blocks Tuesday 9:00 and then walks out of WLAN range.
	busy := calendar.Slot{Day: "2003-04-22", Hour: 9}
	if err := cals["andy"].MarkBusy(busy, "flight", 0); err != nil {
		log.Fatal(err)
	}
	fmt.Println("andy's device hands over to its stand-in and disconnects")
	device := nodes["andy"]
	if err := device.Repl.Release(ctx); err != nil {
		log.Fatal(err)
	}
	if err := standIn.PromoteNow(ctx); err != nil {
		log.Fatal(err)
	}
	if err := device.Close(ctx); err != nil {
		log.Fatal(err)
	}

	// Phil schedules with Andy anyway — the stand-in answers, honouring
	// Andy's busy slot.
	m, err := cals["phil"].SetupMeeting(ctx, calendar.Request{
		Title: "sync", FromDay: "2003-04-22", ToDay: "2003-04-22", Must: []string{"andy"},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("meeting scheduled while andy is away: %s at %s (%s)\n", m.ID, m.Slot, m.Status)
	if m.Slot == busy {
		log.Fatal("the stand-in ignored andy's busy slot")
	}

	// Andy comes back: his data dir catches up on the stand-in's log,
	// then takes the lease back.
	fmt.Println("andy reconnects and takes over from the stand-in")
	back := follow(deviceDir, "node-andy")
	if err := nodes["andy"].Repl.Release(ctx); err != nil {
		log.Fatal(err)
	}
	standInNode := nodes["andy"]
	if err := back.PromoteNow(ctx); err != nil {
		log.Fatal(err)
	}
	if err := standInNode.Close(ctx); err != nil {
		log.Fatal(err)
	}
	defer nodes["andy"].Close(ctx)

	info := cals["andy"].Slot(m.Slot)
	fmt.Printf("andy's device now shows %s reserved for %s\n", m.Slot, info.Meeting)
	if info.Meeting != m.ID {
		log.Fatal("reservation made at the stand-in lost on handback")
	}
	if got := cals["andy"].Slot(busy).Meeting; got != "personal:flight" {
		log.Fatalf("original busy slot lost: %q", got)
	}
	fmt.Println("ok: no caller ever noticed the disconnect")
}
