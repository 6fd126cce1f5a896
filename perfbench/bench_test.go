package main

import (
	"context"
	"encoding/json"
	"net/netip"
	"os"
	"sort"
	"testing"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/dns"
	"repro/internal/urwatch"
)

// spec is the part of BENCHMARK.json the benchmark must honour.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestWorkloadsTiny runs every workload, untraced and traced, on a tiny
// world and checks that each run passes its own correctness checks and
// emits exactly the metrics BENCHMARK.json names, with their units.
func TestWorkloadsTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload for a few seconds")
	}
	s := loadSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(s.Workloads), len(workloads))
	}
	for _, w := range s.Workloads {
		wl, ok := workloadByName(w.Name)
		if !ok {
			t.Fatalf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
		for _, trace := range []bool{false, true} {
			want := map[string]string{}
			if trace {
				for _, m := range s.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range s.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			name := w.Name
			if trace {
				name += "/trace"
			}
			t.Run(name, func(t *testing.T) {
				res, err := run(context.Background(), options{
					wl: wl, seed: 1, seconds: 2, trace: trace,
					scale: repro.TinyScale(), workdir: t.TempDir(),
				})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%t attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				var got []string
				for k, m := range res.Metrics {
					got = append(got, k)
					if u, ok := want[k]; !ok {
						t.Errorf("metric %q is not in BENCHMARK.json", k)
					} else if u != m.Unit {
						t.Errorf("metric %q has unit %q, BENCHMARK.json says %q", k, m.Unit, u)
					}
				}
				for k := range want {
					if _, ok := res.Metrics[k]; !ok {
						t.Errorf("metric %q missing", k)
					}
				}
				if !trace {
					for k, m := range res.Metrics {
						if m.Value <= 0 {
							t.Errorf("end-to-end metric %s = %v, want > 0", k, m.Value)
						}
					}
				}
				sort.Strings(got)
				t.Logf("%d metrics: %v", len(got), got)
			})
		}
	}
}

// TestCheckReply pins the reply oracle: every correct answer of a real
// generation passes, and a wrong ID, verdict, generation or rcode fails.
func TestCheckReply(t *testing.T) {
	w, err := repro.GenerateWorld(repro.TinyScale(), worldSeed)
	if err != nil {
		t.Fatal(err)
	}
	res, err := repro.NewPipeline(w).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	g := urwatch.SnapshotFromResult(res, 1, time.Unix(0, 0))
	store := urwatch.NewStore()
	store.Publish(g)
	zr := &urwatch.ZoneResponder{Apex: feedApex, Store: store}
	feed := indexFeed(g)
	miss := dns.Name("not-listed.urwatch.") + feedApex
	keys := append(feed.keys, feedKey{name: miss, typ: dns.TypeTXT, kind: kindMiss, wire: mustPack(miss, dns.TypeTXT)})
	served := func(seq uint64) bool { return seq == 1 }
	unserved := func(uint64) bool { return false }
	src := netip.MustParseAddr("127.0.0.1")
	for i, k := range keys {
		q, err := dns.Unpack(k.wire)
		if err != nil {
			t.Fatal(err)
		}
		q.Header.ID = uint16(i)
		raw, err := zr.HandleQuery(src, q).Pack()
		if err != nil {
			t.Fatal(err)
		}
		if err := checkReply(raw, uint16(i), k, served); err != nil {
			t.Fatalf("correct reply rejected: %v", err)
		}
		if checkReply(raw, uint16(i)+1, k, served) == nil {
			t.Fatalf("%s %s: reply with the wrong ID accepted", k.name, k.typ)
		}
		// Listed A answers carry no generation; everything else does.
		if !(k.kind == kindListed && k.typ == dns.TypeA) && checkReply(raw, uint16(i), k, unserved) == nil {
			t.Fatalf("%s %s: reply from an unserved generation accepted", k.name, k.typ)
		}
		if k.kind != kindListed {
			continue
		}
		wrong := k
		wrong.worst = core.CategoryMalicious
		if k.worst == core.CategoryMalicious {
			wrong.worst = core.CategoryCorrect
		}
		if checkReply(raw, uint16(i), wrong, served) == nil {
			t.Fatalf("%s %s: reply for another verdict accepted", k.name, k.typ)
		}
		wrong = k
		wrong.kind = kindMiss
		if checkReply(raw, uint16(i), wrong, served) == nil {
			t.Fatalf("%s %s: listed answer accepted for a miss", k.name, k.typ)
		}
	}
}
