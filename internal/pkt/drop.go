package pkt

// DropReason says why a packet was lost. It is the router's one list of
// reasons: every layer that can lose a packet keeps one cell per reason
// it produces, indexed by this enum, and exports them in the single
// eisr_drops_total family under the reason's label.
type DropReason uint8

// The drop reasons.
const (
	DropDown        DropReason = iota // interface administratively down
	DropTooBig                        // larger than the interface or wire MTU
	DropMalformed                     // headers do not parse
	DropBadPath                       // path-trace encapsulation does not decode
	DropRingFull                      // an interface RX or TX ring had no room
	DropOverload                      // the steered worker's ingress queue was full
	DropBadChecksum                   // IPv4 header checksum mismatch
	DropTTL                           // TTL or hop limit expired
	DropNoRoute                       // no route to the destination
	DropNoOutput                      // routed to an interface that is not attached
	DropPlugin                        // a plugin instance rejected the packet
	DropPluginFault                   // a plugin faulted under the drop policy
	DropQueueFull                     // the output queue had no room
	DropMTU                           // too big for the output link, not fragmentable
	DropEvicted                       // queued on a flow queue that was removed
	DropRcvbuf                        // a kernel socket receive buffer was full
	NumDropReasons
)

var dropReasonLabels = [NumDropReasons]string{
	"down", "too-big", "malformed", "bad-path", "ring-full", "overload",
	"bad-checksum", "ttl-expired", "no-route", "no-output", "plugin",
	"plugin-fault", "queue-full", "mtu", "evicted", "rcvbuf",
}

// String returns the reason's eisr_drops_total label.
func (r DropReason) String() string { return dropReasonLabels[r] }
