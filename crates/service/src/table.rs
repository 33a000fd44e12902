//! The session table: a dense, capacity-bounded slot arena handing out
//! `SessionId`s — the service's admission-control structure, mirroring the
//! `StateArena` idiom of `eba-sim` (dense ids, index-addressed slots).

/// A dense session handle: the slot index in the [`SessionTable`].
///
/// Ids are reused after [`SessionTable::remove`] — a `SessionId` is only
/// meaningful while its session is live, exactly like a file descriptor.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct SessionId(u32);

impl SessionId {
    /// The table slot, for indexing per-session side tables.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The raw id, for packing into integer keys.
    pub fn raw(self) -> u32 {
        self.0
    }

    #[cfg(test)]
    pub(crate) fn from_raw_for_tests(raw: u32) -> Self {
        SessionId(raw)
    }
}

/// A fixed-capacity slot arena of live sessions.
///
/// [`insert`](SessionTable::insert) returns `None` when the table is full
/// — that is the admission-control signal: the caller must drain a
/// completion (freeing a slot with [`remove`](SessionTable::remove))
/// before admitting more work. Slots are reused in LIFO order, so the
/// dense id space never grows past `capacity`.
#[derive(Clone, Debug)]
pub struct SessionTable<T> {
    slots: Vec<Option<T>>,
    free: Vec<u32>,
    live: usize,
    capacity: usize,
}

impl<T> SessionTable<T> {
    /// An empty table admitting at most `capacity` concurrent sessions
    /// (`0` is treated as 1).
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        SessionTable {
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            capacity,
        }
    }

    /// The admission bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Live sessions currently in the table.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no session is live.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Whether the table is at capacity (inserts will be refused).
    pub fn is_full(&self) -> bool {
        self.live == self.capacity
    }

    /// Admits a session, returning its slot id — or `None` when the table
    /// is full (the backpressure signal).
    pub fn insert(&mut self, value: T) -> Option<SessionId> {
        if self.is_full() {
            return None;
        }
        let id = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = Some(value);
                SessionId(slot)
            }
            None => {
                let slot = u32::try_from(self.slots.len()).expect("capacity fits u32");
                self.slots.push(Some(value));
                SessionId(slot)
            }
        };
        self.live += 1;
        Some(id)
    }

    /// The session in slot `id`, if live.
    pub fn get(&self, id: SessionId) -> Option<&T> {
        self.slots.get(id.index()).and_then(|s| s.as_ref())
    }

    /// Mutable access to the session in slot `id`, if live.
    pub fn get_mut(&mut self, id: SessionId) -> Option<&mut T> {
        self.slots.get_mut(id.index()).and_then(|s| s.as_mut())
    }

    /// Retires the session in slot `id`, freeing the slot for reuse.
    pub fn remove(&mut self, id: SessionId) -> Option<T> {
        let value = self.slots.get_mut(id.index()).and_then(|s| s.take())?;
        self.free.push(id.raw());
        self.live -= 1;
        Some(value)
    }

    /// Iterates over the live sessions in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (SessionId, &T)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| slot.as_ref().map(|value| (SessionId(i as u32), value)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_up_to_capacity_then_refuse() {
        let mut table = SessionTable::with_capacity(2);
        let a = table.insert("a").unwrap();
        let b = table.insert("b").unwrap();
        assert!(table.is_full());
        assert_eq!(table.insert("c"), None);
        assert_eq!(table.get(a), Some(&"a"));
        assert_eq!(table.get(b), Some(&"b"));
    }

    #[test]
    fn removed_slots_are_reused_densely() {
        let mut table = SessionTable::with_capacity(2);
        let a = table.insert("a").unwrap();
        let _b = table.insert("b").unwrap();
        assert_eq!(table.remove(a), Some("a"));
        assert_eq!(table.remove(a), None, "double-remove is a no-op");
        let c = table.insert("c").unwrap();
        assert_eq!(c.index(), a.index(), "freed slot is reused");
        assert!(table.is_full());
        // The dense id space never exceeded the capacity.
        assert!(table.iter().all(|(id, _)| id.index() < 2));
    }

    #[test]
    fn len_tracks_live_sessions() {
        let mut table = SessionTable::with_capacity(8);
        assert!(table.is_empty());
        let ids: Vec<_> = (0..5).map(|i| table.insert(i).unwrap()).collect();
        assert_eq!(table.len(), 5);
        for id in &ids {
            table.remove(*id);
        }
        assert!(table.is_empty());
        assert_eq!(table.iter().count(), 0);
    }

    #[test]
    fn get_mut_reaches_the_slot() {
        let mut table = SessionTable::with_capacity(1);
        let id = table.insert(1u32).unwrap();
        *table.get_mut(id).unwrap() += 41;
        assert_eq!(table.get(id), Some(&42));
    }
}
