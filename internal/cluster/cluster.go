// Package cluster models a heterogeneous HPC machine — nodes composed of
// CPU sockets, cores, and GPUs — at the granularity the paper's scheduling
// study needs (§4.3, §5.2). The default topology is Summit's: 4608 nodes,
// each with two 22-core IBM POWER9 sockets and six NVIDIA V100 GPUs. The
// machine tracks per-resource occupancy so a Flux-like matcher can traverse
// it as a resource graph, and exposes drain/undrain for the paper's
// node-failure resilience story.
package cluster

import (
	"fmt"
)

// Topology describes a machine's shape.
type Topology struct {
	Nodes          int `json:"nodes"`
	SocketsPerNode int `json:"sockets_per_node"`
	CoresPerSocket int `json:"cores_per_socket"`
	GPUsPerNode    int `json:"gpus_per_node"`
}

// Summit returns Summit's per-node shape with the given node count
// (§5: 4608 nodes, 2×22-core POWER9, 6 V100s).
func Summit(nodes int) Topology {
	return Topology{Nodes: nodes, SocketsPerNode: 2, CoresPerSocket: 22, GPUsPerNode: 6}
}

// CoresPerNode returns the total CPU cores per node.
func (t Topology) CoresPerNode() int { return t.SocketsPerNode * t.CoresPerSocket }

// VerticesPerNode returns the resource-graph vertex count under one node
// vertex: the node itself, its sockets, cores, and GPUs. This is the unit of
// matcher traversal work in the Fig. 6 / 670× experiments.
func (t Topology) VerticesPerNode() int {
	return 1 + t.SocketsPerNode + t.CoresPerNode() + t.GPUsPerNode
}

// TotalGPUs returns the machine's GPU count.
func (t Topology) TotalGPUs() int { return t.Nodes * t.GPUsPerNode }

// TotalCores returns the machine's CPU core count.
func (t Topology) TotalCores() int { return t.Nodes * t.CoresPerNode() }

// Validate checks the topology is physically sensible.
func (t Topology) Validate() error {
	if t.Nodes < 1 || t.SocketsPerNode < 1 || t.CoresPerSocket < 1 || t.GPUsPerNode < 0 {
		return fmt.Errorf("cluster: invalid topology %+v", t)
	}
	return nil
}

// Node is one compute node's live occupancy state.
type Node struct {
	ID      int
	Drained bool
	// coreUsed and gpuUsed are indexed by local resource id. Core ids are
	// laid out socket-major, so cores [0,CoresPerSocket) share socket 0 —
	// which lets placement honor the paper's cache/PCIe affinity rules.
	coreUsed []bool
	gpuUsed  []bool

	freeCores int
	freeGPUs  int
}

// FreeCores returns the node's free core count.
func (n *Node) FreeCores() int { return n.freeCores }

// FreeGPUs returns the node's free GPU count.
func (n *Node) FreeGPUs() int { return n.freeGPUs }

// Machine is the full resource set.
type Machine struct {
	topo  Topology
	nodes []*Node

	usedCores int
	usedGPUs  int
}

// New builds an idle machine with the given topology.
func New(t Topology) (*Machine, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	m := &Machine{topo: t, nodes: make([]*Node, t.Nodes)}
	for i := range m.nodes {
		m.nodes[i] = &Node{
			ID:        i,
			coreUsed:  make([]bool, t.CoresPerNode()),
			gpuUsed:   make([]bool, t.GPUsPerNode),
			freeCores: t.CoresPerNode(),
			freeGPUs:  t.GPUsPerNode,
		}
	}
	return m, nil
}

// Topology returns the machine's shape.
func (m *Machine) Topology() Topology { return m.topo }

// Node returns node i.
func (m *Machine) Node(i int) *Node { return m.nodes[i] }

// NumNodes returns the node count.
func (m *Machine) NumNodes() int { return len(m.nodes) }

// UsedCores returns the number of occupied cores machine-wide.
func (m *Machine) UsedCores() int { return m.usedCores }

// UsedGPUs returns the number of occupied GPUs machine-wide.
func (m *Machine) UsedGPUs() int { return m.usedGPUs }

// GPUOccupancy returns the fraction of GPUs in use (0..1).
func (m *Machine) GPUOccupancy() float64 {
	total := m.topo.TotalGPUs()
	if total == 0 {
		return 0
	}
	return float64(m.usedGPUs) / float64(total)
}

// CPUOccupancy returns the fraction of cores in use (0..1).
func (m *Machine) CPUOccupancy() float64 {
	total := m.topo.TotalCores()
	if total == 0 {
		return 0
	}
	return float64(m.usedCores) / float64(total)
}

// Drain marks a node unschedulable without disturbing running jobs — the
// Flux failure-handling behaviour the paper inherits ("drain the failed
// nodes so that no new jobs can be scheduled while keeping the existing
// jobs running").
func (m *Machine) Drain(node int) { m.nodes[node].Drained = true }

// Undrain returns a node to service.
func (m *Machine) Undrain(node int) { m.nodes[node].Drained = false }

// Alloc is a placement of one job: one part per participating node.
type Alloc struct {
	Parts []AllocPart
}

// AllocPart pins specific cores and GPUs on one node.
type AllocPart struct {
	Node  int
	Cores []int
	GPUs  []int
}

// NodeFits reports whether node i (not drained) can host cores+gpus.
func (m *Machine) NodeFits(i, cores, gpus int) bool {
	n := m.nodes[i]
	return !n.Drained && n.freeCores >= cores && n.freeGPUs >= gpus
}

// Reserve picks specific free resources on node i and returns the part.
// Cores are taken socket-contiguously (lowest free ids first), matching the
// paper's placement rule that a simulation's cores share cache and analysis
// cores sit near the PCIe bus; GPUs are lowest-id-first. The part's core
// and GPU ids share one exact-size array; a part without cores (or GPUs)
// has a nil Cores (GPUs).
func (m *Machine) Reserve(i, cores, gpus int) (AllocPart, error) {
	if !m.NodeFits(i, cores, gpus) {
		return AllocPart{}, fmt.Errorf("cluster: node %d cannot fit %d cores + %d gpus", i, cores, gpus)
	}
	n := m.nodes[i]
	ids := make([]int, 0, cores+gpus)
	for c := 0; c < len(n.coreUsed) && len(ids) < cores; c++ {
		if !n.coreUsed[c] {
			n.coreUsed[c] = true
			ids = append(ids, c)
		}
	}
	for g := 0; g < len(n.gpuUsed) && len(ids) < cores+gpus; g++ {
		if !n.gpuUsed[g] {
			n.gpuUsed[g] = true
			ids = append(ids, g)
		}
	}
	part := AllocPart{Node: i}
	if cores > 0 {
		part.Cores = ids[:cores:cores]
	}
	if gpus > 0 {
		part.GPUs = ids[cores:]
	}
	n.freeCores -= cores
	n.freeGPUs -= gpus
	m.usedCores += cores
	m.usedGPUs += gpus
	return part, nil
}

// Release frees every resource in the allocation.
func (m *Machine) Release(a Alloc) {
	for _, p := range a.Parts {
		n := m.nodes[p.Node]
		for _, c := range p.Cores {
			if n.coreUsed[c] {
				n.coreUsed[c] = false
				n.freeCores++
				m.usedCores--
			}
		}
		for _, g := range p.GPUs {
			if n.gpuUsed[g] {
				n.gpuUsed[g] = false
				n.freeGPUs++
				m.usedGPUs--
			}
		}
	}
}
