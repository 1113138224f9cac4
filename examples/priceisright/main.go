// Price-is-right — the third sample application named in the paper's
// Fig. 2: "a price-is-right bidding game suitable to be played at an
// airport or a mall". Each player is an independent SyD device; the
// host collects bids with one group invocation and commits the sale to
// the winner atomically with a negotiation-and link (the winner's
// wallet and the host's inventory change together or not at all).
//
//	go run ./examples/priceisright
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/directory"
	"repro/internal/sim"
)

func main() {
	ctx := context.Background()
	net := sim.New(sim.Config{})
	dirSrv := directory.NewServer(directory.WithTTL(time.Hour))
	if _, err := net.Listen("dir", dirSrv.Handler()); err != nil {
		log.Fatal(err)
	}

	hostNode, err := core.Start(ctx, core.Config{User: "host", Net: net, DirAddr: "dir"})
	if err != nil {
		log.Fatal(err)
	}
	host := NewHost(hostNode, 3)

	names := []string{"ana", "ben", "eva", "tom"}
	players := map[string]*Player{}
	for i, id := range names {
		node, err := core.Start(ctx, core.Config{User: id, Net: net, DirAddr: "dir"})
		if err != nil {
			log.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(i + 1)))
		p, err := NewPlayer(ctx, node, 500, func(listPrice int) int {
			return listPrice - 40 + rng.Intn(80) // guess around the list price
		})
		if err != nil {
			log.Fatal(err)
		}
		players[id] = p
	}

	for round := 1; round <= 3; round++ {
		listPrice := 100 + round*37
		fmt.Printf("\nround %d — item lists at $%d\n", round, listPrice)
		res := host.PlayRound(ctx, names, listPrice)
		for _, b := range res.Bids {
			fmt.Printf("  %s bids $%d\n", b.Player, b.Amount)
		}
		switch {
		case res.Complete:
			fmt.Printf("  %s wins at $%d (wallet now $%d, inventory %d)\n",
				res.Winner, res.Price, players[res.Winner].Wallet(), host.Inventory())
		case res.SaleErr != nil:
			fmt.Printf("  sale failed: %v\n", res.SaleErr)
		default:
			fmt.Println("  everyone overbid — no sale")
		}
	}

	fmt.Println("\nfinal standings (by remaining wallet):")
	for i, id := range Leaderboard(players) {
		fmt.Printf("  %d. %-4s $%d, wins at %v\n", i+1, id, players[id].Wallet(), players[id].Wins())
	}
}
