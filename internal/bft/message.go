// Package bft implements Byzantine fault tolerant state machine
// replication for ClusterBFT's control tier (paper §6.4, where 3f+1
// request-handler replicas replace the implicitly trusted front end; the
// paper uses BFT-SMaRt, we implement the same PBFT-style three-phase
// protocol: pre-prepare, prepare, commit, with client reply matching and
// view changes). The transport is a deterministic virtual-time in-memory
// network so protocol runs are reproducible.
package bft

import (
	"crypto/sha256"
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// ID identifies a replica or client on the network.
type ID string

// ReplicaID formats the conventional replica name for index i.
func ReplicaID(i int) ID { return ID(fmt.Sprintf("replica-%d", i)) }

// Digest is a SHA-256 over a request's identity, binding the three
// protocol phases to one request.
type Digest [sha256.Size]byte

// Request is a client operation to order and execute.
type Request struct {
	Client ID
	Seq    uint64 // client-local timestamp; dedupes retransmissions
	Op     []byte
}

// Digest binds the request's identity: SHA-256 of "client|seq|" and the
// operation.
func (r Request) Digest() Digest {
	var buf [256]byte
	b := append(buf[:0], r.Client...)
	b = append(b, '|')
	b = strconv.AppendUint(b, r.Seq, 10)
	b = append(b, '|')
	return sha256.Sum256(append(b, r.Op...))
}

// reqKey identifies a request for deduplication.
type reqKey struct {
	client ID
	seq    uint64
}

func (r Request) key() reqKey { return reqKey{r.Client, r.Seq} }

// sortByKey orders requests as view changes re-propose them: by the
// string order of "client|seq", which is not the order of the pair (a
// '|' sorts after letters and digits, and seq compares as text).
func sortByKey(reqs []Request) {
	text := func(r Request) string { return string(r.Client) + "|" + strconv.FormatUint(r.Seq, 10) }
	slices.SortFunc(reqs, func(a, b Request) int { return strings.Compare(text(a), text(b)) })
}

// PrePrepare is the primary's ordering proposal for a request.
type PrePrepare struct {
	View    uint64
	Seq     uint64 // global sequence number
	Digest  Digest
	Request Request
}

// Prepare is a backup's agreement to the proposal.
type Prepare struct {
	View    uint64
	Seq     uint64
	Digest  Digest
	Replica ID
}

// Commit finalizes ordering once a prepare quorum exists.
type Commit struct {
	View    uint64
	Seq     uint64
	Digest  Digest
	Replica ID
}

// Reply carries one replica's execution result back to the client, which
// accepts a result once f+1 replicas agree on it.
type Reply struct {
	View    uint64
	ReqSeq  uint64 // the client's request timestamp
	Replica ID
	Result  []byte
}

// ViewChange votes to move to NewView after a primary timeout. Pending
// carries requests the sender saw but did not execute, so the new primary
// can re-propose them.
type ViewChange struct {
	NewView uint64
	Replica ID
	LastSeq uint64
	Pending []Request
}

// NewView installs a view; Reproposals are re-issued pre-prepares for
// requests surviving the view change.
type NewView struct {
	View        uint64
	Primary     ID
	Reproposals []PrePrepare
}

// Message is the union of protocol messages carried by the network.
type Message any
