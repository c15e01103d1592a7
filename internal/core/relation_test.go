package core

import (
	"testing"

	"repro/internal/rel"
)

// TestArenaSmallRelation: a 3-row relation carves every row from one
// 16-row first chunk — a single allocation, not a 4096-cell chunk.
func TestArenaSmallRelation(t *testing.T) {
	const width = 3
	p := &Relation{}
	allocs := testing.AllocsPerRun(20, func() {
		p.arena = nil
		for i := 0; i < 3; i++ {
			p.NewRow(width)
		}
	})
	if allocs > 1 {
		t.Fatalf("3 rows cost %v allocations, want at most one chunk", allocs)
	}
	if got, want := cap(p.arena), arenaFirstRows*width; got != want {
		t.Fatalf("first chunk holds %d cells, want %d", got, want)
	}
}

// TestArenaChunkDoubling: each new chunk doubles the previous one up to
// arenaChunkCells, then stays there.
func TestArenaChunkDoubling(t *testing.T) {
	const width = 4
	p := &Relation{}
	var caps []int
	for i := 0; i < 4*arenaChunkCells/width; i++ {
		before := cap(p.arena)
		p.NewRow(width)
		if cap(p.arena) != before {
			caps = append(caps, cap(p.arena))
		}
	}
	want := arenaFirstRows * width
	for i, c := range caps {
		if c != want {
			t.Fatalf("chunk %d holds %d cells, want %d (chunks %v)", i, c, want, caps)
		}
		want = min(2*want, arenaChunkCells)
	}
	if last := caps[len(caps)-1]; last != arenaChunkCells {
		t.Fatalf("last chunk holds %d cells, want the %d-cell cap", last, arenaChunkCells)
	}
}

// TestArenaWideRow: a row wider than the chunk cap still gets a chunk of
// its own, both as the first row and after the arena has reached the cap.
func TestArenaWideRow(t *testing.T) {
	const wide = arenaChunkCells + 7
	p := &Relation{}
	if row := p.NewRow(wide); len(row) != wide || cap(row) != wide {
		t.Fatalf("first wide row len %d cap %d, want %d", len(row), cap(row), wide)
	}
	for i := 0; i < 2*arenaChunkCells; i++ {
		p.NewRow(1)
	}
	if row := p.NewRow(wide); len(row) != wide || cap(row) != wide {
		t.Fatalf("wide row after capped chunks len %d cap %d, want %d", len(row), cap(row), wide)
	}
}

// TestArenaAppendIsolated: appending to a returned row reallocates it (its
// capacity is clamped) instead of overwriting the next row in the chunk.
func TestArenaAppendIsolated(t *testing.T) {
	p := &Relation{}
	a := p.NewRow(2)
	b := p.NewRow(2)
	b[0] = Cell{D: rel.Int(7)}
	a = append(a, Cell{D: rel.Int(99)})
	if len(a) != 3 {
		t.Fatalf("appended row has %d cells", len(a))
	}
	if !b[0].D.Equal(rel.Int(7)) || !b[1].D.IsNull() {
		t.Fatalf("append to a row overwrote its neighbour: %v", b)
	}
}

// TestArenaCloneSurvivesChunkSwitch: rows a Clone carved from its arena stay
// intact when later rows force the clone's arena onto fresh chunks.
func TestArenaCloneSurvivesChunkSwitch(t *testing.T) {
	const width, rows = 3, 40 // 40 rows span the 16-row and 32-row chunks
	src := NewRelation("R", nil, Attr{Name: "A"}, Attr{Name: "B"}, Attr{Name: "C"})
	for i := 0; i < rows; i++ {
		row := src.NewRow(width)
		for j := range row {
			row[j] = Cell{D: rel.Int(int64(i*width + j))}
		}
		src.Tuples = append(src.Tuples, row)
	}
	c := src.Clone()
	for i := 0; i < 200; i++ {
		row := c.NewRow(width)
		for j := range row {
			row[j] = Cell{D: rel.Int(-1)}
		}
	}
	for i, row := range c.Tuples {
		for j, cell := range row {
			if want := rel.Int(int64(i*width + j)); !cell.D.Equal(want) {
				t.Fatalf("clone row %d cell %d = %v, want %v", i, j, cell.D, want)
			}
		}
	}
}
