#!/usr/bin/env sh
# The mutant catalogue: deliberate bugs that a named test must catch.
#
#   scripts/mutants.sh
#
# Each entry below gives a name, a one-hunk patch, the narrowest `cargo
# test` selection that must fail once the patch is applied, and the reason
# it must. The script copies the working tree (without `target/`) to
# target/mutants/tree and never edits the working tree itself. For each
# entry it first runs the selection on the clean copy, which must pass;
# then it applies the patch, builds the selection (the mutant must
# compile), runs it, which must fail, and reverts the patch. It prints one
# line per entry and exits 1 if any mutant survives, a patch no longer
# applies or a clean selection fails.
#
# Every copy builds into target/mutants/target, so an entry rebuilds only
# the crates its patch touches. Cargo decides freshness by file times, and a
# file restored from the tree keeps its old time, so every file the
# catalogue patches is touched once after the copy is made.
#
# To add an entry: write an `entry_NAME` function that sets `sel` (the
# arguments after `cargo test --offline -q`) and `why`, and prints the
# patch (`diff -u` against the working tree, paths prefixed a/ and b/),
# then append NAME to MUTANTS.

set -eu

cd "$(dirname "$0")/.."

MUTANTS="seq_dropped_from_key cancel_keeps_generation head_without_liveness_check
bed_keyed_without_health loop_bound_saturates alone_rate_without_ceiling
finish_skips_shared_links detach_keeps_attached_bit table_sets_shift_by_drawer"

# Two events at one instant must pop in scheduling order. Without the
# sequence number, ties fall to slot order, which the scheduling order
# matches only until a slot is recycled.
entry_seq_dropped_from_key() {
    sel='-p desim --test properties event_queue_matches_reference_heap'
    why='ties pop in slot order once slots are recycled'
    cat <<'PATCH'
--- a/crates/desim/src/queue.rs
+++ b/crates/desim/src/queue.rs
@@ -110,7 +110,7 @@
         let generation = self.slots[slot as usize].generation;
         let key = Key {
             time,
-            seq: self.seq,
+            seq: 0,
         };
         self.seq += 1;
         self.live += 1;
PATCH
}

# A cancelled slot that keeps its generation lets the old handle cancel
# the slot's next event, and leaves the old heap entry looking live.
entry_cancel_keeps_generation() {
    sel='-p desim --lib stale_handle_cannot_cancel_recycled_slot'
    why='a stale handle cancels the event that recycled its slot'
    cat <<'PATCH'
--- a/crates/desim/src/queue.rs
+++ b/crates/desim/src/queue.rs
@@ -128,7 +128,6 @@
         let payload = slot.payload.take()?;
         // Bump generation now; the heap entry is skipped lazily and the
         // slot is reusable immediately.
-        slot.generation = slot.generation.wrapping_add(1);
         self.free.push(handle.slot);
         self.live -= 1;
         Some(payload)
PATCH
}

# Cancelled entries stay in the heap; a head taken without the generation
# check surfaces a cancelled event to peek and pop.
entry_head_without_liveness_check() {
    sel='-p desim --lib queue::tests'
    why='peek and pop see cancelled heads'
    cat <<'PATCH'
--- a/crates/desim/src/queue.rs
+++ b/crates/desim/src/queue.rs
@@ -155,7 +155,7 @@
     /// Drop cancelled entries off the heap until its head, if any, is live.
     fn settle_head(&mut self) {
         while let Some(&Reverse((_, slot, generation))) = self.heap.peek() {
-            if self.slots[slot as usize].generation == generation {
+            if true {
                 return;
             }
             self.heap.pop(); // cancelled: its slot's generation moved on
PATCH
}

# A probe cache plans one bed per (shape, health). A bed memo that drops
# the health prices a degraded placement on the full-health bed planned
# before it.
entry_bed_keyed_without_health() {
    sel='-p scheduler --lib probe::tests::degraded_links_price_slower_for_comm_bound_jobs'
    why='a degraded probe reuses the full-health bed and prices no slower'
    cat <<'PATCH'
--- a/crates/scheduler/src/probe.rs
+++ b/crates/scheduler/src/probe.rs
@@ -182,7 +182,7 @@
     /// The bed of `shape` at `health`, planned on first use.
     fn bed(&mut self, shape: Shape, health: LinkHealth) -> Arc<Bed> {
         let planned = &mut self.beds_planned;
-        let bed = self.beds.entry((shape, health)).or_insert_with(|| {
+        let bed = self.beds.entry((shape, LinkHealth::FULL)).or_insert_with(|| {
             *planned += 1;
             Arc::new(plan_bed(shape, health))
         });
PATCH
}

# A service over its scale-up threshold at epoch entry holds the loop at
# every instant, since each step bumps its target. Saturating the headroom
# to zero lets the epoch run on to the service's next arrival instead.
entry_loop_bound_saturates() {
    sel='-p scheduler --lib serving_epoch_matches_the_per_instant_reference_on_checked_in_specs'
    why='the pinned over-threshold spec absorbs instants that scale up'
    cat <<'PATCH'
--- a/crates/scheduler/src/serve.rs
+++ b/crates/scheduler/src/serve.rs
@@ -608,7 +608,7 @@
         }
         let mut bound = self.spec.end();
         if self.target < self.spec.max_replicas {
-            let headroom = self.scale_up_threshold().checked_sub(self.backlog())?;
+            let headroom = self.scale_up_threshold().saturating_sub(self.backlog());
             if let Some(&a) = self.arrivals.get(self.cursor + headroom) {
                 bound = bound.min(a);
             }
PATCH
}

# A flow alone on its links takes its one-flow fill in closed form. A
# closed form that forgets the route's path efficiency runs a lone flow
# through a switch at its bottleneck link's full capacity.
entry_alone_rate_without_ceiling() {
    sel='-p fabric --lib single_flow_gets_bottleneck_capacity'
    why='a lone flow through a switch runs at 10 GB/s, above its 9.2 GB/s ceiling'
    cat <<'PATCH'
--- a/crates/fabric/src/flow.rs
+++ b/crates/fabric/src/flow.rs
@@ -652,7 +652,7 @@
             .iter()
             .map(|&dl| self.topo.capacity(dl))
             .fold(f64::INFINITY, f64::min);
-        0.0 + b.min(b * route.path_efficiency).max(0.0)
+        0.0 + b.max(0.0)
     }
 
     /// Apply `sc.rate` to the flows in `sc.active` and reschedule their
PATCH
}

# A departed flow re-prices nothing only when no active flow crosses its
# links. Returning on every completion leaves a neighbour at the share it
# had while the two flows shared a link.
entry_finish_skips_shared_links() {
    sel='-p fabric --lib freed_bandwidth_is_reallocated'
    why='the long flow keeps its shared rate after the short one finishes'
    cat <<'PATCH'
--- a/crates/fabric/src/flow.rs
+++ b/crates/fabric/src/flow.rs
@@ -424,7 +424,7 @@
         // Is the changed flow alone? Its links then carry only the flow
         // itself (activation) or nothing (completion or abort).
         let own = usize::from(seed_slot.is_some());
-        if seed_hops
+        if seed_slot.is_none() || seed_hops
             .iter()
             .all(|dl| self.link_flows.get(dl.dense_index()).map_or(0, Vec::len) == own)
         {
PATCH
}

# A chassis keeps its attached slots twice: the owner table and the mask
# that counts them and that `Rack::table_sets` reads. A detach that clears
# the owner but keeps the bit leaves the count and the mask one slot high.
entry_detach_keeps_attached_bit() {
    sel='-p falcon --test chassis_props dense_tables_match_the_map_reference'
    why='n_attachments and attached_mask still count a detached slot'
    cat <<'PATCH'
--- a/crates/falcon/src/chassis.rs
+++ b/crates/falcon/src/chassis.rs
@@ -414,7 +414,6 @@
         let host = self.owners[i]
             .take()
             .ok_or(ChassisError::NotAttached(addr))?;
-        self.attached &= !(1 << i);
         Ok(host)
     }
 
PATCH
}

# Each chassis owns 16 bits of a rack slot set. Shifting its masks by one
# drawer's 8 bits folds chassis c's second drawer onto chassis c+1's first.
entry_table_sets_shift_by_drawer() {
    sel='-p rack --test free_set_props'
    why='table_sets puts a chassis-1 slot on a chassis-0 bit'
    cat <<'PATCH'
--- a/crates/rack/src/lib.rs
+++ b/crates/rack/src/lib.rs
@@ -383,7 +383,7 @@
     pub fn table_sets(&self) -> (u128, u128) {
         let (mut attached, mut failed) = (0, 0);
         for (c, mcs) in self.chassis.iter().enumerate() {
-            let shift = c as u32 * SLOTS_PER_CHASSIS;
+            let shift = c as u32 * 8;
             mcs.with_chassis(|ch| {
                 attached |= u128::from(ch.attached_mask()) << shift;
                 failed |= u128::from(ch.failed_mask()) << shift;
PATCH
}

work=$PWD/target/mutants
tree=$work/tree
export CARGO_TARGET_DIR="$work/target"

rm -rf "$tree"
mkdir -p "$tree"
tar --exclude=./target --exclude=./perfbench/target --exclude=./.git -cf - . | tar -xf - -C "$tree"
for name in $MUTANTS; do
    "entry_$name" | sed -n 's|^+++ b/||p'
done | sort -u | while read -r file; do
    touch "$tree/$file"
done

start=$(date +%s)
survived=0
for name in $MUTANTS; do
    sel='' why=''
    "entry_$name" > "$work/$name.patch"
    log="$work/$name.log"
    # shellcheck disable=SC2086 # $sel is a list of cargo arguments
    if ! (cd "$tree" && cargo test --offline -q $sel) > "$log" 2>&1; then
        echo "BROKEN   $name: the clean tree fails its selection (see $log)"
        survived=1
        continue
    fi
    if ! patch -s -F0 -p1 -d "$tree" < "$work/$name.patch" > "$log" 2>&1; then
        echo "BROKEN   $name: its patch no longer applies (see $log)"
        survived=1
        continue
    fi
    # shellcheck disable=SC2086
    if ! (cd "$tree" && cargo test --offline -q --no-run $sel) >> "$log" 2>&1; then
        echo "BROKEN   $name: the mutant does not compile (see $log)"
        survived=1
    elif (cd "$tree" && cargo test --offline -q $sel) >> "$log" 2>&1; then
        echo "SURVIVED $name: cargo test $sel passed ($why)"
        survived=1
    else
        echo "killed   $name: cargo test $sel ($why)"
    fi
    patch -s -F0 -R -p1 -d "$tree" < "$work/$name.patch"
done
echo "mutants: $(( $(date +%s) - start ))s"
exit "$survived"
