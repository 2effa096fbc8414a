package explore

import (
	"bufio"
	"context"
	"encoding/gob"
	"fmt"
	"io"
	"math/rand"

	"github.com/explore-by-example/aide/internal/engine"
	"github.com/explore-by-example/aide/internal/geom"
	"github.com/explore-by-example/aide/internal/grid"
)

// Session persistence. Real exploration sessions are human-paced — a
// systematic review can span days — so a session must survive process
// restarts. Save serializes the labeled set, options, phase state and
// discovery frontier; Resume reconstructs a session over the same view.
//
// The restored session continues from the identical exploration state
// (same frontier, same labeled set, same predicted areas after its first
// retrain). Random choices after the restore draw from a reseeded
// generator, so a resumed session is deterministic given the snapshot but
// not bit-identical to the uninterrupted run.

// snapshotMagic guards the stream format.
const snapshotMagic = "AIDEsess1"

// sessionSnapshot is the gob wire format. Exported fields for gob only.
type sessionSnapshot struct {
	Options   Options
	Rows      []int
	Labels    []bool
	Iter      int
	Hits      int
	LastSlabs []geom.Rect
	PrevAreas []geom.Rect
	Stats     SessionStats
	Discovery discoverySnapshot
	TableName string
	TableRows int
	Attrs     []string

	// Conflict-ledger vote tallies per row and session-permanent
	// degradations. Absent (nil) in snapshots from older versions; Resume
	// then rebuilds a single-vote ledger from Labels.
	LedgerPos map[int]int
	LedgerNeg map[int]int
	PermDegr  []string
}

// discoverySnapshot captures the strategy state.
type discoverySnapshot struct {
	Kind string // "grid", "cluster", "hybrid"

	// Grid state.
	GridFrontier []grid.Cell
	GridNext     []grid.Cell
	GridMaxLevel int
	GridCurLevel int

	// Cluster state: full levels plus frontier/next as (level, index)
	// references.
	ClusterLevels  [][]clusterNodeSnapshot
	ClusterFront   [][2]int
	ClusterNext    [][2]int
	HybridSwitched bool
}

type clusterNodeSnapshot struct {
	Center   geom.Point
	Radius   float64
	Children []int
	Level    int
}

// Save writes the session state to w.
func (s *Session) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(snapshotMagic); err != nil {
		return err
	}
	snap := sessionSnapshot{
		Options:   s.opts,
		Rows:      s.rows,
		Labels:    s.labels,
		Iter:      s.iter,
		Hits:      s.discoveryHits,
		LastSlabs: s.lastSlabs,
		PrevAreas: s.prevAreas,
		Stats:     s.stats,
		TableName: s.view.Table().Name(),
		TableRows: s.view.NumRows(),
		Attrs:     s.view.Attrs(),
		LedgerPos: make(map[int]int, len(s.ledger.votes)),
		LedgerNeg: make(map[int]int, len(s.ledger.votes)),
		PermDegr:  s.permDegr,
	}
	for row, v := range s.ledger.votes {
		snap.LedgerPos[row] = v.pos
		snap.LedgerNeg[row] = v.neg
	}
	var err error
	snap.Discovery, err = snapshotDiscovery(s.disc)
	if err != nil {
		return err
	}
	if err := gob.NewEncoder(bw).Encode(snap); err != nil {
		return fmt.Errorf("explore: encoding session: %w", err)
	}
	return bw.Flush()
}

func snapshotDiscovery(d discoverer) (discoverySnapshot, error) {
	switch dd := d.(type) {
	case *gridDiscovery:
		return discoverySnapshot{
			Kind:         "grid",
			GridFrontier: dd.frontier,
			GridNext:     dd.next,
			GridMaxLevel: dd.maxLevel,
			GridCurLevel: dd.curLevel,
		}, nil
	case *clusterDiscovery:
		snap := discoverySnapshot{Kind: "cluster"}
		snap.ClusterLevels, snap.ClusterFront, snap.ClusterNext = snapshotCluster(dd)
		return snap, nil
	case *hybridDiscovery:
		snap := discoverySnapshot{Kind: "hybrid", HybridSwitched: dd.switched}
		snap.ClusterLevels, snap.ClusterFront, snap.ClusterNext = snapshotCluster(dd.cluster)
		if dd.switched && dd.grid != nil {
			snap.GridFrontier = dd.grid.frontier
			snap.GridNext = dd.grid.next
			snap.GridMaxLevel = dd.grid.maxLevel
			snap.GridCurLevel = dd.grid.curLevel
		}
		return snap, nil
	default:
		return discoverySnapshot{}, fmt.Errorf("explore: cannot snapshot discovery %T", d)
	}
}

func snapshotCluster(cd *clusterDiscovery) ([][]clusterNodeSnapshot, [][2]int, [][2]int) {
	levels := make([][]clusterNodeSnapshot, len(cd.levels))
	index := map[*clusterNode][2]int{}
	for l := range cd.levels {
		levels[l] = make([]clusterNodeSnapshot, len(cd.levels[l]))
		for i := range cd.levels[l] {
			n := &cd.levels[l][i]
			index[n] = [2]int{l, i}
			levels[l][i] = clusterNodeSnapshot{
				Center:   n.center,
				Radius:   n.radius,
				Children: n.children,
				Level:    n.level,
			}
		}
	}
	refs := func(nodes []*clusterNode) [][2]int {
		out := make([][2]int, len(nodes))
		for i, n := range nodes {
			out[i] = index[n]
		}
		return out
	}
	return levels, refs(cd.frontier), refs(cd.next)
}

// Resume reconstructs a session from a snapshot over the given view and
// oracle. The view must match the one the session was saved from (same
// table name, row count and exploration attributes). Labels recorded in
// the snapshot are NOT re-requested from the oracle.
func Resume(r io.Reader, view *engine.View, oracle Oracle) (*Session, error) {
	if view == nil || oracle == nil {
		return nil, fmt.Errorf("explore: nil view or oracle")
	}
	br := bufio.NewReader(r)
	magic := make([]byte, len(snapshotMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("explore: reading snapshot magic: %w", err)
	}
	if string(magic) != snapshotMagic {
		return nil, fmt.Errorf("explore: not a session snapshot (magic %q)", magic)
	}
	var snap sessionSnapshot
	if err := gob.NewDecoder(br).Decode(&snap); err != nil {
		return nil, fmt.Errorf("explore: decoding session: %w", err)
	}
	if snap.TableName != view.Table().Name() || snap.TableRows != view.NumRows() {
		return nil, fmt.Errorf("explore: snapshot is for table %q (%d rows), view is %q (%d rows)",
			snap.TableName, snap.TableRows, view.Table().Name(), view.NumRows())
	}
	attrs := view.Attrs()
	if len(attrs) != len(snap.Attrs) {
		return nil, fmt.Errorf("explore: snapshot has %d attrs, view has %d", len(snap.Attrs), len(attrs))
	}
	for i := range attrs {
		if attrs[i] != snap.Attrs[i] {
			return nil, fmt.Errorf("explore: snapshot attr %q != view attr %q", snap.Attrs[i], attrs[i])
		}
	}
	if len(snap.Rows) != len(snap.Labels) {
		return nil, fmt.Errorf("explore: corrupt snapshot: %d rows vs %d labels", len(snap.Rows), len(snap.Labels))
	}

	s := &Session{
		view:   view,
		oracle: oracle,
		opts:   snap.Options,
		// Reseed deterministically from the snapshot; see the package
		// comment above about determinism across restores.
		rng:           rand.New(rand.NewSource(snap.Options.Seed*31 + int64(snap.Iter) + 1)),
		labelOf:       make(map[int]bool, len(snap.Rows)),
		idxOf:         make(map[int]int, len(snap.Rows)),
		ledger:        newLabelLedger(),
		permDegr:      snap.PermDegr,
		iter:          snap.Iter,
		discoveryHits: snap.Hits,
		lastSlabs:     snap.LastSlabs,
		prevAreas:     snap.PrevAreas,
		stats:         snap.Stats,
	}
	if snap.Options.RangeHint != nil {
		s.bounds = snap.Options.RangeHint.Clone()
	} else {
		s.bounds = geom.NewRect(view.Dims())
	}
	for i, row := range snap.Rows {
		if row < 0 || row >= view.NumRows() {
			return nil, fmt.Errorf("explore: corrupt snapshot: row %d out of range", row)
		}
		s.idxOf[row] = len(s.rows)
		s.rows = append(s.rows, row)
		s.labels = append(s.labels, snap.Labels[i])
		s.points = append(s.points, view.NormPoint(row))
		s.labelOf[row] = snap.Labels[i]
		if snap.Labels[i] {
			s.nPos++
		}
		// Restore the conflict ledger's vote tallies; a pre-ledger
		// snapshot has no tallies, so each label seeds one unanimous vote.
		if pos, neg := snap.LedgerPos[row], snap.LedgerNeg[row]; pos > 0 || neg > 0 {
			s.ledger.seed(row, pos, neg)
		} else if snap.Labels[i] {
			s.ledger.seed(row, 1, 0)
		} else {
			s.ledger.seed(row, 0, 1)
		}
	}
	// The event/flip counters live in the persisted stats; carry them back
	// into the ledger so post-resume conflict accounting keeps counting.
	s.ledger.events = snap.Stats.Conflicts.ConflictEvents
	s.ledger.flips = snap.Stats.Conflicts.LabelFlips
	var err error
	s.disc, err = restoreDiscovery(s, snap.Discovery)
	if err != nil {
		return nil, err
	}
	// Rebuild the classifier so areas/prediction are immediately
	// available (they are derived state). It trains through the session's
	// Set, so the restored rows are sorted here once and the first retrain
	// sorts only the rows labelled after the resume.
	if s.nPos > 0 && s.nPos < len(s.rows) {
		tree, err := s.set.Train(context.Background(), s.points, s.labels, s.ledger.weights(s.rows), s.opts.Tree)
		if err != nil {
			return nil, fmt.Errorf("explore: retraining after resume: %w", err)
		}
		s.tree = tree
		s.areas = tree.RelevantAreas(s.bounds)
	}
	return s, nil
}

func restoreDiscovery(s *Session, snap discoverySnapshot) (discoverer, error) {
	switch snap.Kind {
	case "grid":
		g, err := grid.New(s.view.Dims(), s.opts.Beta0)
		if err != nil {
			return nil, err
		}
		gd := &gridDiscovery{
			g:        g,
			frontier: snap.GridFrontier,
			next:     snap.GridNext,
			maxLevel: snap.GridMaxLevel,
			curLevel: snap.GridCurLevel,
		}
		gd.avgCount = float64(s.view.NumRows()) / float64(g.NumCells(gd.curLevel))
		return gd, nil
	case "cluster":
		return restoreCluster(snap)
	case "hybrid":
		cd, err := restoreCluster(snap)
		if err != nil {
			return nil, err
		}
		hd := &hybridDiscovery{cluster: cd, session: s, switched: snap.HybridSwitched}
		if snap.HybridSwitched {
			g, err := grid.New(s.view.Dims(), s.opts.Beta0)
			if err != nil {
				return nil, err
			}
			hd.grid = &gridDiscovery{
				g:        g,
				frontier: snap.GridFrontier,
				next:     snap.GridNext,
				maxLevel: snap.GridMaxLevel,
				curLevel: snap.GridCurLevel,
			}
			hd.grid.avgCount = float64(s.view.NumRows()) / float64(g.NumCells(hd.grid.curLevel))
		}
		return hd, nil
	default:
		return nil, fmt.Errorf("explore: unknown discovery kind %q in snapshot", snap.Kind)
	}
}

func restoreCluster(snap discoverySnapshot) (*clusterDiscovery, error) {
	cd := &clusterDiscovery{}
	cd.levels = make([][]clusterNode, len(snap.ClusterLevels))
	for l := range snap.ClusterLevels {
		cd.levels[l] = make([]clusterNode, len(snap.ClusterLevels[l]))
		for i, n := range snap.ClusterLevels[l] {
			cd.levels[l][i] = clusterNode{
				center:   n.Center,
				radius:   n.Radius,
				children: n.Children,
				level:    n.Level,
			}
		}
	}
	deref := func(refs [][2]int) ([]*clusterNode, error) {
		out := make([]*clusterNode, len(refs))
		for i, ref := range refs {
			l, idx := ref[0], ref[1]
			if l < 0 || l >= len(cd.levels) || idx < 0 || idx >= len(cd.levels[l]) {
				return nil, fmt.Errorf("explore: corrupt snapshot: cluster ref %v", ref)
			}
			out[i] = &cd.levels[l][idx]
		}
		return out, nil
	}
	var err error
	if cd.frontier, err = deref(snap.ClusterFront); err != nil {
		return nil, err
	}
	if cd.next, err = deref(snap.ClusterNext); err != nil {
		return nil, err
	}
	return cd, nil
}
