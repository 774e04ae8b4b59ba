//! Whole programs: functions, shared memory and thread entry points.

use crate::function::Function;
use crate::types::{FuncId, QueueId};

/// Sentinel "function address" that terminates the auxiliary thread's master
/// loop (the paper's NULL function pointer, Section 3).
pub const TERMINATE_SENTINEL: i64 = -1;

/// A whole program: a set of functions, an initial shared-memory image, and
/// one entry function per hardware context (core).
///
/// Context 0 runs the main thread. DSWP-transformed programs add one
/// auxiliary context per extra pipeline stage, each entering a *master*
/// function that loops consuming function ids from its master queue
/// (Section 3 of the paper).
#[derive(Clone, Debug)]
pub struct Program {
    functions: Vec<Function>,
    /// Initial contents of the word-addressed shared memory.
    pub initial_memory: Vec<i64>,
    /// Number of synchronization-array queues addressable by the program.
    pub num_queues: u32,
    thread_entries: Vec<FuncId>,
}

impl Program {
    /// Creates a single-threaded program with `main` as the only context.
    pub fn new(functions: Vec<Function>, main: FuncId, initial_memory: Vec<i64>) -> Self {
        Program {
            functions,
            initial_memory,
            num_queues: 0,
            thread_entries: vec![main],
        }
    }

    pub(crate) fn from_parts(
        functions: Vec<Function>,
        initial_memory: Vec<i64>,
        num_queues: u32,
        thread_entries: Vec<FuncId>,
    ) -> Self {
        Program {
            functions,
            initial_memory,
            num_queues,
            thread_entries,
        }
    }

    /// The functions of the program, indexed by [`FuncId`].
    #[inline]
    pub fn functions(&self) -> &[Function] {
        &self.functions
    }

    /// Returns a function.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[inline]
    pub fn function(&self, id: FuncId) -> &Function {
        &self.functions[id.index()]
    }

    /// Mutable access to a function.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[inline]
    pub fn function_mut(&mut self, id: FuncId) -> &mut Function {
        &mut self.functions[id.index()]
    }

    /// Adds a function, returning its id.
    pub fn add_function(&mut self, f: Function) -> FuncId {
        let id = FuncId::from_index(self.functions.len());
        self.functions.push(f);
        id
    }

    /// The entry function of each hardware context; context 0 is the main
    /// thread.
    #[inline]
    pub fn thread_entries(&self) -> &[FuncId] {
        &self.thread_entries
    }

    /// Number of hardware contexts this program expects.
    #[inline]
    pub fn num_threads(&self) -> usize {
        self.thread_entries.len()
    }

    /// The main thread's entry function.
    #[inline]
    pub fn main(&self) -> FuncId {
        self.thread_entries[0]
    }

    /// Registers an additional hardware context entering `entry`.
    pub fn add_thread(&mut self, entry: FuncId) {
        self.thread_entries.push(entry);
    }

    /// Allocates a fresh queue id.
    pub fn new_queue(&mut self) -> QueueId {
        let q = QueueId(self.num_queues);
        self.num_queues += 1;
        q
    }

    /// Total live instruction count across all functions.
    pub fn num_instrs(&self) -> usize {
        self.functions.iter().map(Function::num_instrs).sum()
    }

    /// Looks up a function by name (first match).
    pub fn function_by_name(&self, name: &str) -> Option<FuncId> {
        self.functions
            .iter()
            .position(|f| f.name == name)
            .map(FuncId::from_index)
    }
}

#[cfg(test)]
mod tests {
    use crate::builder::ProgramBuilder;

    #[test]
    fn thread_and_queue_management() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main");
        let e = f.entry_block();
        f.switch_to(e);
        f.halt();
        let main = f.finish();
        let mut p = pb.finish(main, 8);

        assert_eq!(p.num_threads(), 1);
        assert_eq!(p.main(), main);

        let q0 = p.new_queue();
        let q1 = p.new_queue();
        assert_ne!(q0, q1);
        assert_eq!(p.num_queues, 2);

        let mut pb2 = ProgramBuilder::new();
        let mut aux = pb2.function("aux");
        let e2 = aux.entry_block();
        aux.switch_to(e2);
        aux.halt();
        let auxf = aux.finish_into(&mut p);
        let _ = pb2;
        p.add_thread(auxf);
        assert_eq!(p.num_threads(), 2);
        assert_eq!(p.function(auxf).name, "aux");
    }

    #[test]
    fn function_by_name_finds_first_match() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main");
        let e = f.entry_block();
        f.switch_to(e);
        f.halt();
        let main = f.finish();
        let p = pb.finish(main, 0);
        assert_eq!(p.function_by_name("main"), Some(main));
        assert_eq!(p.function_by_name("nope"), None);
    }
}
