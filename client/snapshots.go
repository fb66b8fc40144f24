package client

import (
	"context"
	"net/http"
	"net/url"

	"rankedaccess/internal/api"
)

// SnapshotInfo reports what a checkpoint wrote: the file's Name (pass
// it to Restore) and Bytes, the instance Version captured, and how many
// Structures and Registrations were persisted (Skipped structures
// rebuild on demand after a warm start).
type SnapshotInfo = api.SnapshotInfo

// SnapshotFile describes one snapshot in the server's directory
// listing: Name, Bytes, EngineVersion and CreatedUnixNano.
type SnapshotFile = api.SnapshotFile

// RestoreInfo is the result of restoring a snapshot into the live
// server.
type RestoreInfo = api.RestoreInfo

// Snapshot checkpoints the server's current state (instance, built
// structures, prepared-query registry) into its snapshot directory via
// POST /v1/snapshots. The server must run with -snapshot-dir.
func (c *Client) Snapshot(ctx context.Context) (SnapshotInfo, error) {
	var out SnapshotInfo
	_, err := c.do(ctx, http.MethodPost, "/v1/snapshots", nil, &out, "")
	return out, err
}

// Snapshots lists the server's snapshots, newest first, via
// GET /v1/snapshots.
func (c *Client) Snapshots(ctx context.Context) ([]SnapshotFile, error) {
	var out api.SnapshotList
	_, err := c.do(ctx, http.MethodGet, "/v1/snapshots", nil, &out, "")
	return out.Snapshots, err
}

// Restore replaces the server's live state with the named snapshot via
// POST /v1/snapshots/{name}/restore. Prepared handles and cursors
// opened before the restore are invalidated, exactly as by any other
// mutation.
func (c *Client) Restore(ctx context.Context, name string) (RestoreInfo, error) {
	var out RestoreInfo
	_, err := c.do(ctx, http.MethodPost, "/v1/snapshots/"+url.PathEscape(name)+"/restore", nil, &out, "")
	return out, err
}
