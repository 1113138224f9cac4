package directory

import (
	"context"

	"repro/internal/wire"
)

// UnregisterService removes a published service.
func (c *Client) UnregisterService(ctx context.Context, name string) error {
	return c.call(ctx, "UnregisterService", wire.Args{wire.Str("name", name)}, nil)
}

// AddMember adds one member to a group (idempotent).
func (c *Client) AddMember(ctx context.Context, group, member string) error {
	return c.call(ctx, "AddMember", wire.Args{wire.Str("group", group), wire.Str("member", member)}, nil)
}

// RemoveMember removes one member from a group (idempotent).
func (c *Client) RemoveMember(ctx context.Context, group, member string) error {
	return c.call(ctx, "RemoveMember", wire.Args{wire.Str("group", group), wire.Str("member", member)}, nil)
}
