package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"

	"repro/internal/identity"
	"repro/internal/paperdata"
	"repro/internal/pqp"
	"repro/internal/sourceset"
	"repro/internal/tables"
)

// contractMetrics reads the metric names BENCHMARK.json promises for a
// plain (end_to_end) or traced (per_layer) run.
func contractMetrics(t *testing.T, traced bool) []string {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	list := spec.EndToEnd
	if traced {
		list = spec.PerLayer
	}
	var names []string
	for _, m := range list {
		names = append(names, m.Name+" "+m.Unit)
	}
	sort.Strings(names)
	return names
}

// TestSmoke runs every workload at tiny size through the command's entry
// point, plain and traced, and checks the result line against the contract.
func TestSmoke(t *testing.T) {
	for _, wl := range []string{"fig1-tcp", "star-mix", "ingest-mix"} {
		for _, trace := range []string{"0", "1"} {
			t.Run(wl+"/trace="+trace, func(t *testing.T) {
				var out, errOut bytes.Buffer
				args := []string{"--workload", wl, "--seed", "3", "--seconds", "2", "--trace", trace, "--tiny", "--out", t.TempDir()}
				if code := run(args, &out, &errOut); code != 0 {
					t.Fatalf("exit %d: %s", code, errOut.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, errOut.String())
				}
				var got []string
				for name, m := range res.Metrics {
					got = append(got, name+" "+m.Unit)
				}
				sort.Strings(got)
				want := contractMetrics(t, trace == "1")
				if strings.Join(got, ",") != strings.Join(want, ",") {
					t.Fatalf("metrics\n got %v\nwant %v", got, want)
				}
			})
		}
	}
}

func TestUnknownWorkloadFails(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"--workload", "nope", "--out", t.TempDir()}, &out, &errOut); code == 0 || out.Len() != 0 {
		t.Fatalf("exit %d, stdout %q", code, out.String())
	}
}

// dropOrigin removes one source from the origin tag of the first cell.
func dropOrigin(t *testing.T, set *sourceset.Set) {
	t.Helper()
	ids := set.IDs()
	if len(ids) == 0 {
		t.Fatal("cell has no origin tag")
	}
	*set = set.Minus(sourceset.Of(ids[0]))
}

// TestCorruptedAnswerCounted feeds the checker one answer with a dropped
// origin tag and expects exactly that answer to count as failed.
func TestCorruptedAnswerCounted(t *testing.T) {
	t.Run("fig1-tcp", func(t *testing.T) {
		fed := paperdata.New()
		q := pqp.New(fed.Schema, fed.Registry, identity.CaseFold{}, fed.LQPs())
		res, err := q.QuerySQL(tables.PaperSQL)
		if err != nil {
			t.Fatal(err)
		}
		sp, _ := newSpec("fig1-tcp", 1, tinySizes)
		b := &bench{sp: sp}
		good := fingerprint(res.Relation)
		dropOrigin(t, &res.Relation.Tuples[0][0].O)
		w := &window{checks: []answerCheck{{0, good}, {0, fingerprint(res.Relation)}}, attempted: 2}
		if err := b.checkAnswers(nil, w); err != nil {
			t.Fatal(err)
		}
		if w.failed != 1 {
			t.Fatalf("failed = %d, want 1", w.failed)
		}
	})
	t.Run("star-mix", func(t *testing.T) {
		sp, _ := newSpec("star-mix", 1, tinySizes)
		b := &bench{sp: sp}
		r := &rig{sys: &system{data: sp.data()}}
		idx := -1
		for i, q := range sp.seq {
			if q.class == "join" && q.check {
				idx = i
				break
			}
		}
		if idx < 0 {
			t.Fatal("no checked join query")
		}
		or := newOracle(r.sys.data)
		e, err := parse(sp.seq[idx], r.sys.data.schema)
		if err != nil {
			t.Fatal(err)
		}
		res, err := or.q.Run(e)
		if err != nil {
			t.Fatal(err)
		}
		if res.Relation.Cardinality() == 0 {
			t.Fatal("empty join answer")
		}
		good := fingerprint(res.Relation)
		dropOrigin(t, &res.Relation.Tuples[0][0].O)
		w := &window{checks: []answerCheck{{idx, good}, {idx, fingerprint(res.Relation)}}, attempted: 2}
		if err := b.checkAnswers(r, w); err != nil {
			t.Fatal(err)
		}
		if w.failed != 1 {
			t.Fatalf("failed = %d, want 1", w.failed)
		}
	})
}

func TestCovered(t *testing.T) {
	ivs := [][2]int64{{5, 8}, {0, 3}, {2, 4}, {7, 12}}
	// Union within [1, 10]: [1,4] + [5,10] = 3 + 5.
	if got := covered(ivs, 1, 10); got != 8 {
		t.Fatalf("covered = %d, want 8", got)
	}
	if got := covered(nil, 0, 10); got != 0 {
		t.Fatalf("covered(nil) = %d", got)
	}
}
