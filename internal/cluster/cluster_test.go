package cluster

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSummitTopology(t *testing.T) {
	s := Summit(4608)
	if s.CoresPerNode() != 44 {
		t.Errorf("CoresPerNode = %d", s.CoresPerNode())
	}
	if s.TotalGPUs() != 27648 {
		t.Errorf("TotalGPUs = %d", s.TotalGPUs())
	}
	// Vertices per node: 1 node + 2 sockets + 44 cores + 6 GPUs = 53.
	if s.VerticesPerNode() != 53 {
		t.Errorf("VerticesPerNode = %d", s.VerticesPerNode())
	}
	if n := 1 + s.Nodes*s.VerticesPerNode(); n != 1+4608*53 {
		t.Errorf("vertices = %d", n)
	}
	if err := s.Validate(); err != nil {
		t.Error(err)
	}
}

func TestValidateRejectsBadTopology(t *testing.T) {
	for _, bad := range []Topology{
		{Nodes: 0, SocketsPerNode: 2, CoresPerSocket: 22, GPUsPerNode: 6},
		{Nodes: 1, SocketsPerNode: 0, CoresPerSocket: 22, GPUsPerNode: 6},
		{Nodes: 1, SocketsPerNode: 2, CoresPerSocket: 0, GPUsPerNode: 6},
		{Nodes: 1, SocketsPerNode: 2, CoresPerSocket: 22, GPUsPerNode: -1},
	} {
		if _, err := New(bad); err == nil {
			t.Errorf("topology %+v accepted", bad)
		}
	}
}

func TestReserveAndRelease(t *testing.T) {
	m, err := New(Summit(2))
	if err != nil {
		t.Fatal(err)
	}
	// A CG simulation job: 1 GPU + 3 cores (sim 1 core in the paper's v1
	// accounting, analysis 3; our job shape groups them).
	part, err := m.Reserve(0, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(part.Cores) != 3 || len(part.GPUs) != 1 {
		t.Fatalf("part = %+v", part)
	}
	// Lowest-id, socket-contiguous placement.
	if part.Cores[0] != 0 || part.Cores[1] != 1 || part.Cores[2] != 2 || part.GPUs[0] != 0 {
		t.Errorf("placement not lowest-id-first: %+v", part)
	}
	if m.UsedCores() != 3 || m.UsedGPUs() != 1 {
		t.Errorf("used = %d cores, %d gpus", m.UsedCores(), m.UsedGPUs())
	}
	if m.Node(0).FreeCores() != 41 || m.Node(0).FreeGPUs() != 5 {
		t.Errorf("node free = %d/%d", m.Node(0).FreeCores(), m.Node(0).FreeGPUs())
	}
	m.Release(Alloc{Parts: []AllocPart{part}})
	if m.UsedCores() != 0 || m.UsedGPUs() != 0 {
		t.Error("release did not restore occupancy")
	}
}

func TestReserveExhaustsGPUs(t *testing.T) {
	m, _ := New(Summit(1))
	for i := 0; i < 6; i++ {
		if _, err := m.Reserve(0, 2, 1); err != nil {
			t.Fatalf("reserve %d: %v", i, err)
		}
	}
	if m.NodeFits(0, 2, 1) {
		t.Error("node claims to fit a 7th GPU job")
	}
	if _, err := m.Reserve(0, 2, 1); err == nil {
		t.Error("7th GPU reservation succeeded")
	}
	// CPU-only setup job (24 cores) still fits: 44 - 12 = 32 free.
	if !m.NodeFits(0, 24, 0) {
		t.Error("setup job should still fit")
	}
}

func TestDrainBlocksNewWorkKeepsOld(t *testing.T) {
	m, _ := New(Summit(2))
	part, err := m.Reserve(1, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	m.Drain(1)
	if m.NodeFits(1, 1, 0) {
		t.Error("drained node accepts new work")
	}
	// The running job's resources stay allocated and releasable.
	if m.UsedGPUs() != 2 {
		t.Error("drain disturbed running allocation")
	}
	m.Release(Alloc{Parts: []AllocPart{part}})
	if m.UsedGPUs() != 0 {
		t.Error("release on drained node failed")
	}
	m.Undrain(1)
	if !m.NodeFits(1, 1, 0) {
		t.Error("undrained node rejects work")
	}
}

func TestOccupancyFractions(t *testing.T) {
	m, _ := New(Summit(4))
	// Fill all GPUs on 3 of 4 nodes: occupancy 18/24 = 0.75.
	for n := 0; n < 3; n++ {
		for g := 0; g < 6; g++ {
			if _, err := m.Reserve(n, 2, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := m.GPUOccupancy(); got != 0.75 {
		t.Errorf("GPUOccupancy = %v", got)
	}
	wantCPU := float64(3*6*2) / float64(4*44)
	if got := m.CPUOccupancy(); got != wantCPU {
		t.Errorf("CPUOccupancy = %v, want %v", got, wantCPU)
	}
}

func TestDoubleReleaseIsHarmless(t *testing.T) {
	m, _ := New(Summit(1))
	part, _ := m.Reserve(0, 2, 1)
	a := Alloc{Parts: []AllocPart{part}}
	m.Release(a)
	m.Release(a) // second release of same alloc must not corrupt counters
	if m.UsedCores() != 0 || m.UsedGPUs() != 0 {
		t.Errorf("counters corrupted: %d cores %d gpus", m.UsedCores(), m.UsedGPUs())
	}
	if m.Node(0).FreeCores() != 44 || m.Node(0).FreeGPUs() != 6 {
		t.Error("node free counts corrupted")
	}
}

func TestPropertyReserveReleaseConservation(t *testing.T) {
	// Any interleaving of reserves and releases conserves resources: free
	// counts never negative, never exceed capacity, and full release
	// restores an idle machine.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, err := New(Summit(3))
		if err != nil {
			return false
		}
		var live []Alloc
		for op := 0; op < 200; op++ {
			if rng.Intn(2) == 0 && len(live) > 0 {
				i := rng.Intn(len(live))
				m.Release(live[i])
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
			} else {
				node := rng.Intn(3)
				cores, gpus := 1+rng.Intn(4), rng.Intn(2)
				if m.NodeFits(node, cores, gpus) {
					part, err := m.Reserve(node, cores, gpus)
					if err != nil {
						return false
					}
					live = append(live, Alloc{Parts: []AllocPart{part}})
				}
			}
			for n := 0; n < 3; n++ {
				nd := m.Node(n)
				if nd.FreeCores() < 0 || nd.FreeCores() > 44 || nd.FreeGPUs() < 0 || nd.FreeGPUs() > 6 {
					return false
				}
			}
		}
		for _, a := range live {
			m.Release(a)
		}
		return m.UsedCores() == 0 && m.UsedGPUs() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestOccupancyZeroTopology(t *testing.T) {
	// A zero-value Machine has no resources; occupancy must report 0, not
	// NaN (0/0), which would poison downstream profile statistics.
	var m Machine
	if got := m.CPUOccupancy(); got != 0 {
		t.Errorf("CPUOccupancy on empty machine = %v, want 0", got)
	}
	if got := m.GPUOccupancy(); got != 0 {
		t.Errorf("GPUOccupancy on empty machine = %v, want 0", got)
	}
}
