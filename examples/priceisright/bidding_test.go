package main

import (
	"context"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/directory"
	"repro/internal/sim"
)

type world struct {
	t       *testing.T
	net     *sim.Net
	host    *Host
	players map[string]*Player
}

func fixedBid(amount int) Strategy {
	return func(int) int { return amount }
}

func newWorld(t *testing.T, inventory int, bids map[string]int, wallets map[string]int) *world {
	t.Helper()
	net := sim.New(sim.Config{})
	srv := directory.NewServer(directory.WithTTL(time.Hour))
	if _, err := net.Listen("dir", srv.Handler()); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	hostNode, err := core.Start(ctx, core.Config{User: "host", Net: net, DirAddr: "dir"})
	if err != nil {
		t.Fatal(err)
	}
	w := &world{t: t, net: net, host: NewHost(hostNode, inventory), players: map[string]*Player{}}
	for id, amount := range bids {
		node, err := core.Start(ctx, core.Config{User: id, Net: net, DirAddr: "dir"})
		if err != nil {
			t.Fatal(err)
		}
		wallet := 1000
		if wl, ok := wallets[id]; ok {
			wallet = wl
		}
		p, err := NewPlayer(ctx, node, wallet, fixedBid(amount))
		if err != nil {
			t.Fatal(err)
		}
		w.players[id] = p
	}
	return w
}

func playerIDs(w *world) []string {
	var ids []string
	for id := range w.players {
		ids = append(ids, id)
	}
	return ids
}

func TestClosestWithoutGoingOverWins(t *testing.T) {
	w := newWorld(t, 1, map[string]int{"ana": 90, "ben": 99, "eva": 101}, nil)
	res := w.host.PlayRound(context.Background(), []string{"ana", "ben", "eva"}, 100)
	if !res.Complete || res.Winner != "ben" || res.Price != 99 {
		t.Fatalf("res = %+v", res)
	}
	if w.players["ben"].Wallet() != 1000-99 {
		t.Fatalf("ben wallet = %d", w.players["ben"].Wallet())
	}
	if w.players["ana"].Wallet() != 1000 {
		t.Fatal("loser was charged")
	}
	if w.host.Inventory() != 0 {
		t.Fatalf("inventory = %d", w.host.Inventory())
	}
	if got := w.players["ben"].Wins(); !reflect.DeepEqual(got, []int{99}) {
		t.Fatalf("wins = %v", got)
	}
}

func TestEveryoneOverbids(t *testing.T) {
	w := newWorld(t, 1, map[string]int{"ana": 150, "ben": 120}, nil)
	res := w.host.PlayRound(context.Background(), []string{"ana", "ben"}, 100)
	if res.Complete || res.Winner != "" {
		t.Fatalf("res = %+v", res)
	}
	if w.host.Inventory() != 1 {
		t.Fatal("inventory changed without a sale")
	}
}

func TestSaleIsAtomicWhenWinnerCannotPay(t *testing.T) {
	w := newWorld(t, 1, map[string]int{"ana": 99, "ben": 50}, map[string]int{"ana": 10})
	res := w.host.PlayRound(context.Background(), []string{"ana", "ben"}, 100)
	// ana wins the bid but cannot pay: the negotiation-and aborts and
	// NOTHING changes — inventory intact, no wallet debited.
	if res.Complete || res.SaleErr == nil {
		t.Fatalf("res = %+v", res)
	}
	if w.host.Inventory() != 1 {
		t.Fatalf("inventory = %d after failed sale", w.host.Inventory())
	}
	if w.players["ana"].Wallet() != 10 || w.players["ben"].Wallet() != 1000 {
		t.Fatal("wallet changed despite failed sale")
	}
}

func TestSoldOut(t *testing.T) {
	w := newWorld(t, 1, map[string]int{"ana": 90}, nil)
	ctx := context.Background()
	first := w.host.PlayRound(ctx, []string{"ana"}, 100)
	if !first.Complete {
		t.Fatalf("first round = %+v", first)
	}
	second := w.host.PlayRound(ctx, []string{"ana"}, 100)
	if second.Complete || second.SaleErr == nil {
		t.Fatalf("second round = %+v", second)
	}
	if w.players["ana"].Wallet() != 1000-90 {
		t.Fatal("player charged for sold-out item")
	}
}

func TestUnreachablePlayerMissesRound(t *testing.T) {
	w := newWorld(t, 1, map[string]int{"ana": 99, "ben": 90}, nil)
	w.net.SetDown("node-ana", true)
	res := w.host.PlayRound(context.Background(), []string{"ana", "ben"}, 100)
	if !res.Complete || res.Winner != "ben" {
		t.Fatalf("res = %+v", res)
	}
	for _, b := range res.Bids {
		if b.Player == "ana" && b.Err == nil {
			t.Fatal("down player produced a bid")
		}
	}
}

func TestLeaderboard(t *testing.T) {
	w := newWorld(t, 2, map[string]int{"ana": 90, "ben": 80}, nil)
	ctx := context.Background()
	w.host.PlayRound(ctx, playerIDs(w), 100) // ana wins at 90
	got := Leaderboard(w.players)
	if !reflect.DeepEqual(got, []string{"ben", "ana"}) {
		t.Fatalf("leaderboard = %v", got)
	}
}
