/* a struct that contains itself by value has no finite layout: exit 3 */
struct s {
  int a;
  struct s x;
};

long main(void) { return sizeof(struct s); }
