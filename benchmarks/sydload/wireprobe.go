package main

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/transport"
	"repro/internal/wire"
)

const (
	// probeLimit is how many real envelopes a traced run keeps.
	probeLimit = 1000
	// probeStride samples every 7th call: a stride that shares no factor
	// with the 12 RPCs of a schedule, so every kind of call is sampled.
	probeStride = 7
	// probePasses is how often the sample is replayed per codec; the
	// median pass is reported.
	probePasses = 5
)

// wireProbe keeps a sample of the requests and responses that really
// crossed the sockets, to replay them through the frame codecs.
type wireProbe struct {
	on    atomic.Bool
	calls atomic.Int64

	mu   sync.Mutex
	envs []*wire.Envelope
}

func (p *wireProbe) sample(req *transport.Request, resp *transport.Response) {
	if !p.on.Load() || p.calls.Add(1)%probeStride != 0 {
		return
	}
	p.mu.Lock()
	if len(p.envs) < probeLimit {
		p.envs = append(p.envs,
			&wire.Envelope{Kind: wire.KindRequest, Request: req},
			&wire.Envelope{Kind: wire.KindResponse, Response: resp})
	}
	p.mu.Unlock()
}

// probedNet hands every completed call to the probe. It wraps a node's
// network in the traced run only.
type probedNet struct {
	transport.Network
	probe *wireProbe
}

func (n *probedNet) Call(ctx context.Context, addr string, req *transport.Request) (*transport.Response, error) {
	resp, err := n.Network.Call(ctx, addr, req)
	if err == nil {
		n.probe.sample(req, resp)
	}
	return resp, err
}

// codecCost is what one codec costs on the sampled envelopes.
type codecCost struct {
	encodeNs, decodeNs, bytes float64 // per frame
}

// replay encodes and decodes the sample with codec c, timing only the
// wire.EncodeFrameCodec and FrameReader.Read calls.
func (p *wireProbe) replay(c wire.Codec) (codecCost, error) {
	p.mu.Lock()
	envs := p.envs
	p.mu.Unlock()
	if len(envs) == 0 {
		return codecCost{}, fmt.Errorf("wire probe sampled no envelope")
	}
	var enc, dec []float64
	var stream bytes.Buffer
	for pass := 0; pass < probePasses; pass++ {
		stream.Reset()
		var encNs time.Duration
		for _, env := range envs {
			t0 := time.Now()
			f, err := wire.EncodeFrameCodec(env, c)
			encNs += time.Since(t0)
			if err != nil {
				return codecCost{}, fmt.Errorf("wire probe encode %s: %w", c, err)
			}
			stream.Write(f.Bytes())
			f.Release()
		}
		fr := wire.NewFrameReader(bytes.NewReader(stream.Bytes()))
		var decNs time.Duration
		for range envs {
			t0 := time.Now()
			_, err := fr.Read()
			decNs += time.Since(t0)
			if err != nil {
				return codecCost{}, fmt.Errorf("wire probe decode %s: %w", c, err)
			}
		}
		enc = append(enc, float64(encNs)/float64(len(envs)))
		dec = append(dec, float64(decNs)/float64(len(envs)))
	}
	sort.Float64s(enc)
	sort.Float64s(dec)
	return codecCost{
		encodeNs: enc[len(enc)/2],
		decodeNs: dec[len(dec)/2],
		bytes:    float64(stream.Len()) / float64(len(envs)),
	}, nil
}
