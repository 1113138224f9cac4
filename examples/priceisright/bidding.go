package main

import (
	"context"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/links"
	"repro/internal/listener"
	"repro/internal/store"
	"repro/internal/wire"
)

// The price-is-right game is the third sample application the paper
// names in Fig. 2 ("a price-is-right bidding game suitable to be played
// at an airport or a mall").
//
// Each player is an independent SyD device publishing a Bid method;
// the host collects a round of bids with one group invocation, picks
// the closest bid not exceeding the list price, and commits the sale
// atomically with a negotiation-and link: the winner's wallet debit
// and the host's inventory decrement happen together or not at all —
// the "group transactions across independent data stores" of the
// paper's abstract.

// ServicePrefix prefixes a player's bidding service name.
const ServicePrefix = "bid."

// ServiceFor returns the bidding service name for a player.
func ServiceFor(player string) string { return ServicePrefix + player }

// debitAction / shipAction are the entity actions of the atomic sale.
const (
	debitAction = "bid.debit"
	shipAction  = "bid.shipItem"
)

// Strategy maps a list price to this player's bid.
type Strategy func(listPrice int) int

// Player is one contestant's device object.
type Player struct {
	ID   string
	node *core.Node

	mu     sync.Mutex
	wallet int
	won    []int // purchase prices
}

// NewPlayer attaches the bidding application to a kernel node.
func NewPlayer(ctx context.Context, node *core.Node, wallet int, strategy Strategy) (*Player, error) {
	p := &Player{ID: node.User, node: node, wallet: wallet}

	obj := listener.NewObject()
	obj.Handle("Bid", func(ctx context.Context, call *listener.Call) (any, error) {
		return strategy(call.Args.Int("listPrice")), nil
	})
	if err := node.RegisterService(ctx, ServiceFor(p.ID), obj); err != nil {
		return nil, err
	}

	node.Links.RegisterAction(debitAction, links.Action{
		Check: func(entity string, args wire.Args) error {
			p.mu.Lock()
			defer p.mu.Unlock()
			if p.wallet < args.Int("amount") {
				return &wire.RemoteError{Code: wire.CodeConflict, Msg: p.ID + " has insufficient funds"}
			}
			return nil
		},
		Apply: func(_ *store.Tx, entity string, args wire.Args) error {
			p.mu.Lock()
			defer p.mu.Unlock()
			p.wallet -= args.Int("amount")
			p.won = append(p.won, args.Int("amount"))
			return nil
		},
	})
	return p, nil
}

// Wallet returns the player's balance.
func (p *Player) Wallet() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.wallet
}

// Wins returns the purchase prices of the player's wins.
func (p *Player) Wins() []int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]int(nil), p.won...)
}

// Host runs the game.
type Host struct {
	node *core.Node

	mu        sync.Mutex
	inventory int
}

// NewHost attaches the host application to a kernel node with an
// initial item inventory.
func NewHost(node *core.Node, inventory int) *Host {
	h := &Host{node: node, inventory: inventory}
	node.Links.RegisterAction(shipAction, links.Action{
		Check: func(entity string, args wire.Args) error {
			h.mu.Lock()
			defer h.mu.Unlock()
			if h.inventory == 0 {
				return &wire.RemoteError{Code: wire.CodeConflict, Msg: "bidding: sold out"}
			}
			return nil
		},
		Apply: func(_ *store.Tx, entity string, args wire.Args) error {
			h.mu.Lock()
			defer h.mu.Unlock()
			h.inventory--
			return nil
		},
	})
	return h
}

// Inventory returns the remaining items.
func (h *Host) Inventory() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.inventory
}

// Bid is one player's answer in a round.
type Bid struct {
	Player string
	Amount int
	Err    error
}

// RoundResult is the outcome of one round.
type RoundResult struct {
	ListPrice int
	Bids      []Bid
	// Winner is empty when every bid overshot or the sale failed.
	Winner   string
	Price    int
	SaleErr  error // why the sale failed, if it did
	Complete bool  // a sale happened
}

// PlayRound collects bids from the players (one group invocation),
// picks the closest-without-going-over winner, and commits the sale
// atomically. Unreachable players simply miss the round.
func (h *Host) PlayRound(ctx context.Context, players []string, listPrice int) *RoundResult {
	res := &RoundResult{ListPrice: listPrice}
	services := make([]string, len(players))
	for i, p := range players {
		services[i] = ServiceFor(p)
	}
	results := h.node.Engine.GroupInvoke(ctx, services, "Bid", wire.Args{wire.Int("listPrice", listPrice)})

	best := -1
	for i, r := range results {
		b := Bid{Player: players[i], Err: r.Err}
		if r.Err == nil {
			if err := r.Decode(&b.Amount); err != nil {
				b.Err = err
			}
		}
		res.Bids = append(res.Bids, b)
		if b.Err == nil && b.Amount <= listPrice && b.Amount > best {
			best = b.Amount
			res.Winner = b.Player
		}
	}
	if res.Winner == "" {
		return res // everyone overbid or was unreachable
	}
	res.Price = best

	// Atomic sale: wallet debit at the winner + inventory decrement
	// here, under one negotiation-and.
	_, err := h.node.Links.Negotiate(ctx, links.Spec{
		Action:     debitAction,
		Args:       wire.Args{wire.Int("amount", best)},
		Targets:    []links.EntityRef{{User: res.Winner, Entity: "wallet"}},
		Constraint: links.And,
		Local:      &links.LocalChange{Entity: "inventory", Action: shipAction},
	})
	if err != nil {
		res.SaleErr = err
		res.Winner = ""
		res.Price = 0
		return res
	}
	res.Complete = true
	return res
}

// Leaderboard orders players by remaining wallet, descending.
func Leaderboard(players map[string]*Player) []string {
	ids := make([]string, 0, len(players))
	for id := range players {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		wi, wj := players[ids[i]].Wallet(), players[ids[j]].Wallet()
		if wi != wj {
			return wi > wj
		}
		return ids[i] < ids[j]
	})
	return ids
}
